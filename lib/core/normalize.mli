(** Predicate normalization: set comparisons into quantifier expressions
    (Tables 1 and 2), negation pushing, conjunct hoisting and range fusion.

    After normalization the only quantifier is the existential (∀ becomes
    ¬∃¬), which Rule 1 unnests with semijoin/antijoin.  Set comparisons are
    expanded only when the resulting quantifier ranges over the base-table
    side — the paper's observation that ∈ and ⊇ expand into unnestable
    forms while the other operators yield multiple-subquery expressions
    best left to the grouping/nestjoin phase. *)

open Njq_adl

(** Unconditional Table 1 expansion of a set comparison into a quantifier
    expression (always semantically equivalent).  Used by the strategy
    under the gating below, and by the Table 1 artifact printer as is. *)
val expand_setcmp : Expr.setcmp -> Expr.t -> Expr.t -> Expr.t option

(** All normalization rules, in application priority order. *)
val rules : Rules.rule list

(** Apply {!rules} to a fixpoint (with interleaved folding). *)
val run : Catalog.t -> Expr.t -> Expr.t * Rules.trace
