(** Translation of (rewritten) ADL expressions into physical plans.

    Joins are planned by scanning predicate conjuncts for equi-key pairs
    f(x) = g(y) (hash when at least one exists, nested loop otherwise) and
    by detecting membership shapes over set-valued attributes, which become
    {!Plan.MemberJoin}.  Scalar and parameter-level expressions fall back
    to reference evaluation.

    The planner chooses algorithms and shapes; how an operator runs —
    partitioned, spilling, on the domain pool — is a policy value it sets
    last, on the same operator, from the one engine budget
    ({!Memory.budget}) and the pool size (see {!plan}). *)

open Njq_adl

(** Split a join predicate into oriented equi-key pairs and the residual
    conjunction. *)
val extract_keys :
  string -> string -> Expr.t -> (Expr.t * Expr.t) list * Expr.t

type algo_choice =
  | Auto  (** hash when equi keys exist, nested loop otherwise *)
  | Force of Plan.join_algo  (** the same algorithm everywhere (ablations) *)
  | Cost_based of Catalog.t
      (** pick the cheapest algorithm per join under the {!Cost} model and
          swap inner-join operands so the smaller side is the hash build
          side *)

(** Master switch for the {!access_paths} rewrite and for pointer-based
    member joins ({!Plan.Oid_index}) in {!plan} (default on); off, the
    planner emits exactly the full-scan, hash-build plans of previous
    versions. *)
val use_indexes : bool ref

(** Plan an expression.  [algo] forces a join algorithm everywhere (used by
    the benchmarks to compare algorithms on identical logical plans);
    forcing hash/sort-merge degrades to nested loop where no keys exist.

    Last, one bottom-up pass sets each operator's execution policy.  With
    a bounded {!Memory.budget}, an inner, semi or anti hash join whose
    build side is estimated past it (every one, without [cat]) becomes
    {!Plan.Partitioned} with that budget, and PNHL's budget is clamped to
    it; PNHL otherwise keeps one resident segment.  Then,
    given [cat] and a pool of at least 2 domains ({!Pool.domains}), each
    resident hash join or nestjoin, filter and map with at least 256
    estimated input rows gets its parallel policy: a fixed partition
    count (2 to 16) or the morsel flag. *)
val plan : ?algo:algo_choice -> ?cat:Catalog.t -> Expr.t -> Plan.t

(** Hoist uncorrelated subqueries ({!Consthoist}), plan (with [~cat]), and
    execute. *)
val run : ?algo:algo_choice -> Catalog.t -> Expr.t -> Value.t
