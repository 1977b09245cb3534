(** Compile-time simplification (constant folding) of ADL expressions.

    Serves the static reduction of P(x, ∅) behind Table 3 (see
    {!Emptyset}) and general cleanup after rewrite steps (double negations,
    trivial conjunctions, selections with constant predicates).
    Deliberately conservative: never duplicates work, never changes the
    multiset of base-table scans, and leaves division-by-zero in place. *)

(** The empty-set constant used when reducing P(x, ∅). *)
val empty_set_const : Expr.t

(** Iterate one bottom-up folding pass to a fixpoint. *)
val simplify : Expr.t -> Expr.t
