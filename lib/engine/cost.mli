(** A simple cost model over physical plans: cardinality estimation from
    exact base-table sizes plus textbook selectivity heuristics, and
    per-operator cost formulas in abstract work units.  Used by the
    planner's join-order enumeration ({!Joinorder}), access-path choice
    and execution policies, by {!Serve} to price a batch, and by
    {!Profile} for its estimates. *)

open Njq_adl

(** Selectivity of a predicate, by syntactic shape; in [0, 1]. *)
val selectivity : Expr.t -> float

(** Estimated number of output rows.  With [stats] (see {!Stats}),
    equality selectivities over direct scans use real NDV counts. *)
val rows_out : ?stats:Stats.t -> Catalog.t -> Plan.t -> float

(** Estimated total cost (monotone in input sizes; comparable to the
    {!Njq_obs.Metrics} work-counter totals in spirit, not calibrated). *)
val cost : ?stats:Stats.t -> Catalog.t -> Plan.t -> float
