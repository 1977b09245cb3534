(** Static analysis over ADL expressions: free variables, capture-avoiding
    substitution, base-table usage and structural search — the building
    blocks of every rewrite rule. *)

module S : Set.S with type elt = string

(** Free variables, respecting the binding structure of iterators. *)
val free_vars : Expr.t -> S.t

val is_free : string -> Expr.t -> bool

(** No free variables: the expression denotes a constant (an uncorrelated
    subquery, treated as such per Section 3). *)
val is_closed : Expr.t -> bool

(** Every free name is a parameter placeholder [?i]: a constant once the
    parameters are bound.  Schema inference and sargable-predicate
    planning treat such an expression as a constant; constant folding
    ({!is_closed}) must not, as it would evaluate an unbound parameter. *)
val is_closed_up_to_params : Expr.t -> bool

(** Does the expression mention a base table anywhere, including inside
    iterator parameters?  [Deref] does not count: pointer lookup is not
    base-table iteration (the paper treats it with materialize). *)
val uses_base_table : Expr.t -> bool

(** Names of all base tables mentioned. *)
val base_tables : Expr.t -> S.t

(** Is this an operand that iterates stored extents (a base table possibly
    under selections/maps/projections/joins), as opposed to a set-valued
    attribute? *)
val is_base_table_expr : Expr.t -> bool

(** Capture-avoiding parallel substitution of free variables. *)
val subst : (string * Expr.t) list -> Expr.t -> Expr.t

(** [subst1 x r e] replaces the single free variable [x] by [r]. *)
val subst1 : string -> Expr.t -> Expr.t -> Expr.t

(** Structural replacement of a sub-expression (used to substitute z.g for
    a subquery occurrence in the grouping/nestjoin rewrites).  The caller
    guarantees no binder in [e] captures variables of [old_e]. *)
val replace_subexpr : old_e:Expr.t -> by:Expr.t -> Expr.t -> Expr.t

(** Number of structural occurrences of [needle]. *)
val count_subexpr : needle:Expr.t -> Expr.t -> int

(** AST node count. *)
val size : Expr.t -> int

(** All sub-expressions satisfying the predicate, outermost first. *)
val find_all : (Expr.t -> bool) -> Expr.t -> Expr.t list
