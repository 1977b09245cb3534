(** Detection of correlated base-table subqueries inside iterator parameter
    expressions — shared by the grouping and nestjoin rewrites.

    A subquery in the paper's general two-block format is
    [Y' = α\[y : G(x,y)\](σ\[y : Q(x,y)\](Y))] with Y a base-table
    expression not referencing the outer variable x. *)

open Njq_adl

type t = {
  occurrence : Expr.t;  (** the subquery expression as it occurs *)
  yvar : string;
  q : Expr.t;  (** inner predicate Q(x,y); [true] if none *)
  body : Expr.t;  (** inner map body G(x,y); [Var yvar] if identity *)
  range : Expr.t;  (** the base-table expression Y *)
}

(** Outermost correlated base-table subquery of [x] within a parameter
    expression, skipping subtrees where [x] is shadowed and candidates
    that mention a variable bound between [x] and the occurrence. *)
val find : string -> Expr.t -> t option

(** Schema (attribute names) of a table expression closed up to
    parameters ({!Njq_adl.Analysis.is_closed_up_to_params}), via type
    inference; [None] when open or untypable. *)
val schema_of : Catalog.t -> Expr.t -> string list option

(** A fresh attribute name avoiding the given names. *)
val fresh_attr : string list -> string
