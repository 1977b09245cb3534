(** Cost-based join-order enumeration.

    A pass between the rewriter-driven logical planning ({!Planner}) and
    access-path selection: it extracts maximal join regions — connected
    subtrees of inner equi-joins and selections over leaves with known
    attributes — from the rewriter's output plan, enumerates alternative
    join orders bottom-up (dynamic programming over relation subsets),
    costs each with the {!Cost} model fed by per-epoch {!Stats}, and
    adopts the cheapest order only when it is strictly cheaper than the
    rewriter's.  {!Planner.plan} runs it whenever it has a catalog and no
    forced algorithm.

    Selections go to the earliest node that has their attributes.  Any
    other operator, a semijoin, antijoin or nestjoin included, ends a
    region; the pass still reorders the regions in its operands.  A
    region of more than ten relations keeps its written order (reported
    with [considered = 0]). *)

open Njq_adl

type region_report = {
  relations : string list;  (** leaf labels, rewriter order *)
  considered : int;  (** candidate plans costed *)
  pruned : int;  (** candidates discarded against a cheaper incumbent *)
  chosen_cost : float;
  rewriter_cost : float;
  reordered : bool;  (** chosen plan differs from the rewriter's order *)
  chosen_fingerprint : string;
  rewriter_fingerprint : string;
}

(** Per-region reports of the most recent {!optimize} call, in plan
    traversal order; empty when no region was found. *)
val last_report : region_report list ref

(** The pass: rewrite every join region of the plan to its cheapest
    enumerated order (strictly-cheaper adoption; ties and estimation
    failures keep the rewriter's plan).  Resets {!last_report}. *)
val optimize : stats:Stats.t -> Catalog.t -> Plan.t -> Plan.t

(** The input plan with its first join region replaced by each complete
    enumerated order of that region (deduplicated by fingerprint, capped
    at [limit] per subset) — the differential-test hook: each returned
    plan must produce results bit-identical to the input plan.  [[]] when
    the plan has no region or the region has more than eight relations. *)
val orders : ?limit:int -> Catalog.t -> Plan.t -> Plan.t list
