(** Hoisting of uncorrelated subqueries (paper Section 3: "uncorrelated
    subqueries simply are constants, and treated as such"): every maximal
    closed base-table subexpression inside an iterator parameter expression
    is replaced by the constant value it denotes, evaluated once against
    the catalog.  Top-level operands stay symbolic. *)

open Njq_adl

(** One-pass hoist; the result is equivalent for the catalog it was
    evaluated against.  A bare extent ([Table]) is left as it is: it is
    already a constant reference. *)
val hoist : Catalog.t -> Expr.t -> Expr.t

