(** Cost-based join-order enumeration.

    A pass between the rewriter-driven logical planning ({!Planner}) and
    access-path selection: it extracts maximal join regions — connected
    subtrees of inner joins with semijoin/antijoin/nestjoin edges and
    selections — from the rewriter's output plan, enumerates alternative
    join orders bottom-up (dynamic programming over relation subsets up to
    {!dp_max} relations, greedy nearest-neighbor beyond), costs each with
    the {!Cost} model fed by per-epoch {!Stats}, and adopts the cheapest
    order only when it is strictly cheaper than the rewriter's.
    {!Planner.plan} runs it whenever it has a catalog and no forced
    algorithm.

    Semijoin/antijoin/nestjoin edges ride along as unary operators over
    the accumulating join result, applied at the earliest point where the
    attributes they need are available; a nestjoin's ordering constraint —
    the grouping side must survive into the result — is exactly the
    requirement that its key/body attributes be available, and the
    attribute it produces feeds the availability of later selections, so
    "grouping-complete" subsets fall out of the same dependency tracking.
    Selections go to the earliest node that has their attributes. *)

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

(** Every complete enumerated order of the first join region of the plan
    (deduplicated by fingerprint, capped at [limit] per subset) — the
    differential-test hook: each returned plan must produce results
    bit-identical to the input plan.  [[]] when the plan has no region. *)
val orders : ?limit:int -> Catalog.t -> Plan.t -> Plan.t list
