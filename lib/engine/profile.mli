(** EXPLAIN ANALYZE: per-plan-node estimated vs actual cardinalities with
    q-errors, work counters, wall/CPU time and heap allocation, measured
    non-perturbingly during a normal {!Exec} run (see {!Exec.collect}).

    A fused operator chain executes as one loop: its time, work and
    allocation are attributed to the node that owns the loop, while the
    operators fused into it still report exact [actual_rows] (with zero
    time/work/allocation of their own) — the length of {!Exec.rows} on
    that node's subtree.  The root runs without a dedup of its own
    ({!Exec.run} canonicalizes its rows), so it reports the size of the
    canonical result, which is also the length of {!Exec.rows} on it. *)

open Njq_adl

type node = {
  plan : Plan.t;
  label : string;
  depth : int;
  est_rows : float;
      (** {!Cost.rows_out} estimate under the catalog's statistics, the
          ones the planner costs with. *)
  actual_rows : int;
  qerror : float;
  calls : int;  (** Executions of this physical node (1 unless shared). *)
  wall_ns : int;  (** Monotonic wall time exclusive of children. *)
  cpu_s : float;  (** CPU time exclusive of children. *)
  work : (string * int) list;  (** Counter deltas exclusive of children. *)
  minor_words : float;
      (** Minor-heap words allocated on every domain, exclusive of
          children, summed over calls. *)
  major_words : float;  (** Major-heap words (incl. promotions). *)
  children : node list;
}

(** [qerror ~est ~actual] is [max (est/actual) (actual/est)] with both
    sides clamped below at 1; always [>= 1.0]. *)
val qerror : est:float -> actual:int -> float

(** Execute the plan with a collector installed and fold the samples onto
    the plan tree.  The estimates read {!Stats.cached}, taken after the
    run, so profiling ticks no counter the bare run would not. *)
val run : Catalog.t -> Plan.t -> Value.t * node

(** Pre-order flattening, this node first. *)
val preorder : node -> node list

val max_qerror : node -> float

(** Aligned table: operator, est, actual, q-err, ms, minor_kw, work. *)
val pp : Format.formatter -> node -> unit

val to_json : node -> Njq_obs.Json.t
