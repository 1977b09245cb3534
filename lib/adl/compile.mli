(** Compile-once, run-per-tuple parameter expressions.

    [expr cat ~vars e] translates [e] once into an OCaml closure over a
    slot environment: a [Value.t array] whose slot [i] holds the value of
    [List.nth vars i].  Variable references are resolved to array slots at
    compile time, closed subexpressions (uncorrelated subqueries, Section 3)
    are evaluated once and embedded as constants, and iterators mutate a
    single binder slot per element instead of allocating an assoc cell —
    eliminating the per-tuple AST-dispatch and environment-allocation tax
    of {!Eval.eval}.

    Observationally equivalent to the reference evaluator: for every
    environment the closure returns the same value (or raises the same
    exception) as {!Eval.eval}.  Compiled closures do not tick the
    per-tuple ["nl_pred_eval"]/["nl_tuple_visit"] counters — removing that
    per-tuple interpretive work is the point. *)

(** A compiled expression: apply it to the slot environment. *)
type t = Value.t array -> Value.t

(** [expr cat ~vars e] compiles [e] with the free variables [vars] mapped
    to environment slots in order. *)
val expr : Catalog.t -> vars:string list -> Expr.t -> t

(** {1 Arity-specialized entry points}

    Closures over one or two values, reusing a preallocated slot buffer
    across calls (safe because compiled closures never retain their
    environment and the engine applies each instance sequentially on one
    domain). *)

val expr1 : Catalog.t -> var:string -> Expr.t -> Value.t -> Value.t
val pred1 : Catalog.t -> var:string -> Expr.t -> Value.t -> bool

(** The first variable shadows the second when the names collide, matching
    the reference environment [(a, va) :: (b, vb) :: []]. *)
val expr2 :
  Catalog.t -> vars:string * string -> Expr.t -> Value.t -> Value.t -> Value.t

(** {1 Spawners}

    The per-instance slot buffer is what makes a single [expr1]-style
    closure unsafe to share between domains.  A spawner pays compilation
    once and mints a fresh instance (fresh buffer, shared compiled code)
    per call — the engine's parallel operators give each pool domain its
    own instance. *)

val expr1_spawner :
  Catalog.t -> var:string -> Expr.t -> unit -> Value.t -> Value.t

val pred1_spawner : Catalog.t -> var:string -> Expr.t -> unit -> Value.t -> bool

val expr2_spawner :
  Catalog.t ->
  vars:string * string ->
  Expr.t ->
  unit ->
  Value.t ->
  Value.t ->
  Value.t

val pred2_spawner :
  Catalog.t -> vars:string * string -> Expr.t -> unit -> Value.t -> Value.t -> bool

(** {1 Row makers}

    [expr1_rowmaker cat ~var e] is a fast-path variant of {!expr1} for map
    bodies that are tuple literals with distinct field names: the field
    order is sorted once at compile time and each row builds its field
    list directly through {!Value.of_sorted_fields}, skipping the per-row
    sort inside {!Value.tuple}.  Field expressions evaluate in sorted-name
    order rather than source order.  [None] when the body is not such a
    literal (or is closed); callers fall back to {!expr1}. *)
val expr1_rowmaker :
  Catalog.t -> var:string -> Expr.t -> (Value.t -> Value.t) option
