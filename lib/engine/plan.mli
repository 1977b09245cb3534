(** Physical query plans.

    A plan mirrors the iterator structure of an ADL expression but fixes an
    algorithm per join-family operator.  Parameter expressions (predicates,
    map bodies) stay as ADL, compiled once per operator by the executor
    ({!Njq_adl.Compile}); the engine's contribution is the organization of
    the iteration — the paper's point that a logical join admits many
    set-oriented implementations while a nested subquery forces nested
    loops.  Section 6.2's pointer-based and value-based joins of a set of
    oids with an extent are a {!MemberJoin}'s two right sides
    ({!Oid_index} and {!Build}); [Pnhl] is its memory-bounded
    set-valued-attribute join.

    Each algorithm is one constructor with one executor path; how it runs
    is a policy value on the node, not another plan shape: a hash join or
    nestjoin partitions ({!Partitioned}), a filter or map runs its batches
    as pool tasks ([morsel]), PNHL segments its build side ([mem_budget]).
    The planner sets two of them: {!Memory.budget} partitions an
    over-budget hash join, and {!Pool.domains} sets [morsel]
    ({!Planner.plan}). *)

open Njq_adl

type join_algo =
  | Nested_loop
  | Hash  (** resident, fused: the build table holds the whole right side *)
  | Sort_merge
  | Partitioned of { partitions : int; mem_budget : int }
      (** Hash join run over max([partitions], ceil(|right| / [mem_budget]))
          partitions of both inputs, hashed on the first key (so at least
          one key is required).  The partition pairs run as {!Pool.run}
          tasks and their results concatenate in partition order.  When
          the right side is past [mem_budget] rows, the partitions are
          spill files written on the calling domain, and a pair whose
          build side is still past twice the budget is split again with a
          depth-salted hash.  [partitions] is fixed in the plan, so results
          and work counters do not depend on the pool size;
          [mem_budget = max_int] never spills. *)

(** Output discipline of a membership join. *)
type member_kind =
  | MSemi
  | MAnti
  | MInner
  | MNest of { body : Expr.t; attr : string }

(** Equi-join keys: pairs (f(x), g(y)) from conjuncts [f(x) = g(y)]. *)
type keys = (Expr.t * Expr.t) list

(** How an {!IndexScan} addresses its index: a point lookup supplies one
    closed expression per indexed attribute; a range lookup bounds the
    leading attribute of a sorted index ([(expr, inclusive)] endpoints). *)
type index_lookup =
  | LPoint of Expr.t list
  | LRange of { lo : (Expr.t * bool) option; hi : (Expr.t * bool) option }

type t =
  | Scan of string
  | Filter of { var : string; pred : Expr.t; input : t; morsel : bool }
      (** [morsel]: buffer the input's batches and filter them as pool
          tasks, then stream them on in order — the same row list. *)
  | IndexScan of {
      table : string;
      index : string;  (** catalog index name *)
      var : string;
      lookup : index_lookup;
      residual : Expr.t;  (** conjuncts the index cannot answer *)
      rename : (string * string) list;  (** applied to fetched rows *)
    }
      (** Access-path replacement for [Filter(Scan)] — or
          [Filter(Rename(Scan))] when [rename] is non-empty: fetch only the
          rows the index says can match, rename their attributes, then
          apply the residual.  Emits exactly the replaced subplan's row
          list. *)
  | IndexJoin of {
      kind : Expr.join_kind;  (** [Inner], [Semi] or [Anti] *)
      xvar : string;
      yvar : string;
      table : string;  (** inner base table *)
      index : string;  (** catalog index over [table] *)
      keys : Expr.t list;  (** left probe exprs, one per indexed attr *)
      residual : Expr.t;
      rename : (string * string) list;  (** applied to fetched inner rows *)
      left : t;
    }
      (** Index nested loops: each left row probes the inner table's index
          with its evaluated keys instead of building a hash table over the
          whole extent.  Streams per outer row. *)
  | MapOp of { var : string; body : Expr.t; input : t; morsel : bool }
      (** [morsel]: as for [Filter]. *)
  | ProjectOp of string list * t
  | FlattenOp of t
  | UnionOp of t * t
  | InterOp of t * t
  | DiffOp of t * t
  | ProductOp of t * t
  | JoinOp of {
      algo : join_algo;
      kind : Expr.join_kind;
      xvar : string;
      yvar : string;
      keys : keys;
      residual : Expr.t;  (** conjuncts not covered by the keys *)
      left : t;
      right : t;
    }
  | NestjoinOp of {
      algo : join_algo;
      xvar : string;
      yvar : string;
      keys : keys;
      residual : Expr.t;
      body : Expr.t;
      attr : string;
      left : t;
      right : t;
    }
  | MemberJoin of {
      kind : member_kind;
      xvar : string;
      yvar : string;
      xset : Expr.t;  (** set-valued expression over the left variable *)
      elem_var : string;
      elem_key : Expr.t;  (** key of one element, over [elem_var] *)
      ykey : Expr.t;  (** key of a right row, over [yvar] *)
      left : t;
      right : member_right;
    }
      (** Hash implementation of membership predicates
          ([∃z∈x.c • key(z) = key(y)] or [key(y) ∈ x.c]): hash the right
          operand on its key and probe with the elements of each left
          tuple's set — the probing pattern of PNHL applied to joins. *)
  | RenameOp of (string * string) list * t
  | UnnestOp of string * t
  | NestOp of { attrs : string list; into : string; input : t }
  | DivideOp of t * t
  | Pnhl of {
      attr : string;  (** set-valued attribute of the left rows *)
      elem_key : Expr.t;  (** key of one element, free variable ["elem"] *)
      row_key : Expr.t;  (** key of a right row, free variable ["row"] *)
      into : string;  (** attribute receiving the matched rows *)
      mem_budget : int;  (** max right rows hashed at once *)
      left : t;
      right : t;
    }
      (** Partitioned Nested-Hashed-Loops (Section 6.2, [DeLa92]): the right
          side splits into segments of at most [mem_budget] rows, run as
          {!Pool.run} tasks; past one segment they are spill files.  The
          planner never emits it (queries reach the member nestjoin); it
          is the memory-bounded operator plans build by hand. *)
  | EvalOp of Expr.t  (** fallback: reference (nested-loop) evaluation *)
  | Materialized of Value.t list
      (** an already-computed row list, which must be duplicate-free like
          every node's output (operators above it may skip their dedup);
          the serving layer splices its parameter table in as one
          ({!Njq_engine.Serve}), whose rows carry distinct [__cid]s, never
          the planner *)

(** Right operand of a {!MemberJoin}. *)
and member_right =
  | Build of t  (** rows hashed on [ykey] before the left side probes *)
  | Oid_index of string
      (** pointer-based: a whole extent keyed on ["oid"]
          ({!Njq_adl.Catalog.oid_key}), joined on [ykey = y.oid] with the
          element itself as the probe key.  The catalog's oid index is the
          build table, so nothing is built: each element costs one
          ["oid_lookup"], and the node has no right child.  Rendered
          [oid(T)]; paper Section 6.2, assembly against PNHL. *)

val kind_name : Expr.join_kind -> string
val pp : Format.formatter -> t -> unit
val to_string : t -> string

(** Stable hex identity of a physical plan ({!Njq_obs.Qlog.hash_hex} of
    {!to_string}); the join key between [njq explain --analyze], the
    query log, and [njq top]. *)
val fingerprint : t -> string

(** Short operator label for instrumented reports. *)
val node_label : t -> string

(** Immediate sub-plans, left to right. *)
val children : t -> t list

(** Structural plan equality (operators, algorithms, binder names and all
    embedded expressions). *)
val equal : t -> t -> bool

(** Pre-order visit of every node in the tree. *)
val iter_nodes : (t -> unit) -> t -> unit

(** Pipeline shape of the batched push executor ({!Njq_engine.Exec}):
    [true] when the node streams its output rows, batch by batch, into
    its consumer, [false] when it is a pipeline breaker that materializes
    its full result first (sort-merge inputs, partitioned joins,
    grouping, division, PNHL).  This is the predicate the executor
    consults to fuse edges, so EXPLAIN output rendered from it cannot
    drift from the execution. *)
val streams_output : t -> bool

(** Pipeline-boundary view: a header line with the batch size
    ({!Batch.size}) that fused edges carry, then one node per line, child
    edges marked ["~>"] (fused) or ["=>"] (buffered first: a hash build
    table, a sort buffer, a morsel operator's batches, partitions),
    breakers suffixed ["[breaker]"]. *)
val pp_pipelines : Format.formatter -> t -> unit

(** Rebuild a node with new children; raises [Invalid_argument] on arity
    mismatch. *)
val with_children : t -> t list -> t

(** Rebuild the whole plan with [f] applied to every embedded ADL
    expression (predicates, map/nestjoin bodies, join keys, index
    lookups); operators, algorithms and binder names are untouched.  The
    serve layer binds prepared-query parameters into a cached plan this
    way ([Param i] → [Const v] via {!Njq_adl.Analysis.subst}). *)
val map_exprs : (Njq_adl.Expr.t -> Njq_adl.Expr.t) -> t -> t

(** Replace every [Scan name] for which [f name] answers with the given
    plan.  Splices an in-memory parameter table ([Materialized rows]) into
    a cached batched plan without a catalog registration — and so without
    an epoch bump per batch. *)
val map_scans : (string -> t option) -> t -> t
