(** Translation of (rewritten) ADL expressions into physical plans.

    Joins are planned by scanning predicate conjuncts for equi-key pairs
    f(x) = g(y) (hash when at least one exists, nested loop otherwise) and
    by detecting membership shapes over set-valued attributes, which become
    {!Plan.MemberJoin}.  Scalar and parameter-level expressions fall back
    to reference evaluation. *)

open Njq_adl

(** Split a join predicate into oriented equi-key pairs and the residual
    conjunction. *)
val extract_keys :
  string -> string -> Expr.t -> (Expr.t * Expr.t) list * Expr.t

(** Recognize a membership-style join predicate; returns
    (xset, element variable, element key, y key). *)
val member_shape :
  string -> string -> Expr.t -> (Expr.t * string * Expr.t * Expr.t) option

type algo_choice =
  | Auto  (** hash when equi keys exist, nested loop otherwise *)
  | Force of Plan.join_algo  (** the same algorithm everywhere (ablations) *)
  | Cost_based of Catalog.t
      (** pick the cheapest algorithm per join under the {!Cost} model and
          swap inner-join operands so the smaller side is the hash build
          side *)

(** PNHL memory budget in build-table rows (Section 6.2's |M|); the
    planner derives the partition count as ceil(cardinality / budget), so
    tables that fit run as a single partition. *)
val pnhl_mem_rows : int ref

(** Minimum estimated input rows before the {!parallelize} pass rewrites
    an operator to its parallel variant. *)
val par_threshold : int ref

(** Master switch for the {!access_paths} rewrite and for pointer-based
    member joins ({!Plan.Oid_index}) in {!plan} (default on); off, the
    planner emits exactly the full-scan, hash-build plans of previous
    versions. *)
val use_indexes : bool ref

(** Rewrite full scans under sargable predicates into index access paths,
    bottom-up: [Filter(Scan t)] whose conjuncts pin every attribute of an
    index with closed-expression equalities (or bound the leading
    attribute of a sorted index) becomes {!Plan.IndexScan}; a hash or
    nested-loop join whose inner side scans an indexed table with every
    indexed attribute covered by an equi-key pair becomes
    {!Plan.IndexJoin}.  A candidate replaces the original only when the
    cost model prices it strictly cheaper, so with statistics an index
    path wins only when selective.  Applied by {!plan} automatically when
    [cat] is given, indexes exist and the algorithm is not forced. *)
val access_paths : ?stats:Stats.t -> Catalog.t -> Plan.t -> Plan.t

(** Rewrite hot operators (hash join/semijoin/antijoin/nestjoin, PNHL,
    filter, map) into their parallel variants where stats-derived input
    estimates clear {!par_threshold}.  Partition counts are fixed in the
    plan, so results and counter totals are independent of the pool size.
    [plan ~cat] applies this automatically when {!Pool.domains} is at
    least 2. *)
val parallelize : ?stats:Stats.t -> Catalog.t -> Plan.t -> Plan.t

(** Plan an expression.  [algo] forces a join algorithm everywhere (used by
    the benchmarks to compare algorithms on identical logical plans);
    forcing hash/sort-merge degrades to nested loop where no keys exist.
    [cat] lets the planner consult cardinalities: it sizes PNHL memory
    budgets and, when the domain pool is configured for >= 2 domains,
    applies {!parallelize}. *)
val plan : ?algo:algo_choice -> ?cat:Catalog.t -> Expr.t -> Plan.t

(** Hoist uncorrelated subqueries ({!Consthoist}), plan (with [~cat]), and
    execute. *)
val run : ?algo:algo_choice -> Catalog.t -> Expr.t -> Value.t
