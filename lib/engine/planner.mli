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

(** Plan an expression.  Joins with equi keys hash, others run nested
    loops, and membership shapes become member joins.  Given [cat], three
    catalog passes follow: join-order enumeration ({!Joinorder}), index
    access paths for sargable predicates where {!Cost} prices them lower,
    and member joins onto whole oid-keyed extents that probe the oid index
    ({!Plan.Oid_index}).

    [force] names the algorithm of every keyed join (the benchmarks'
    ablations on identical logical plans) and skips the catalog passes, so
    [~force:Plan.Hash] is the plan as the rewriter wrote it.  A join
    without keys runs nested loops whatever is forced, and forcing nested
    loops also keeps membership joins nested.  A forced algorithm the
    executor cannot run for the join's kind — sort-merge for a semi-,
    anti- or outer join, {!Plan.Partitioned} for an outer join — plans
    hash instead.

    Last, one bottom-up pass sets each operator's execution policy.  With
    a bounded {!Memory.budget}, an inner, semi or anti hash join whose
    build side is estimated past it (every one, without [cat]) becomes
    {!Plan.Partitioned} with that budget.  Given [cat] and a pool of at
    least 2 domains ({!Pool.domains}), each filter and map with at least
    256 estimated input rows gets the morsel flag.  No join is partitioned
    for the pool alone, and no plan holds {!Plan.Pnhl}. *)
val plan : ?force:Plan.join_algo -> ?cat:Catalog.t -> Expr.t -> Plan.t

(** The one derivation of a query's plan, shared by every command, the
    plan cache's callers and {!Serve}: rewrite under [options]
    ({!Njq_core.Strategy.rewrite}; skipped with [~optimize:false], which
    returns a report with no phases), hoist closed subqueries to constants
    ({!Consthoist.hoist}), and {!plan} against [cat].  Returns the rewrite
    report with the plan.  Fresh names are numbered from the start of each
    derivation ({!Njq_adl.Expr.restart_fresh}), so one expression always
    gets the same plan fingerprint. *)
val derive :
  ?optimize:bool ->
  ?options:Njq_core.Strategy.options ->
  Catalog.t ->
  Expr.t ->
  Njq_core.Strategy.report * Plan.t

(** Hoist uncorrelated subqueries ({!Consthoist}), plan (with [~cat]), and
    execute. *)
val run : Catalog.t -> Expr.t -> Value.t
