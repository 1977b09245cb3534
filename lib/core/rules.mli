(** Rewrite-rule infrastructure: a rule is a partial function tried at a
    single node; the driver applies a rule set anywhere in the tree
    (outermost node first), one step at a time, iterating to a fixpoint and
    recording a derivation trace. *)

open Njq_adl

type rule = {
  name : string;
  apply : Catalog.t -> Expr.t -> Expr.t option;
}

val rule : string -> (Catalog.t -> Expr.t -> Expr.t option) -> rule

(** One derivation step: the named rule fired and produced the whole
    query shown. *)
type step = {
  rule_name : string;
  result : Expr.t;
}

type trace = step list

(** One rewrite step anywhere in the expression, outermost-leftmost
    first. *)
val step_anywhere :
  Catalog.t -> rule list -> Expr.t -> (string * Expr.t) option

(** Iterate to a fixpoint; [fuel] bounds the number of steps as a safety
    net against diverging rule sets. *)
val fixpoint : ?fuel:int -> Catalog.t -> rule list -> Expr.t -> Expr.t * trace

(** Like {!fixpoint} but runs [Fold.simplify] after every step, so rules
    see folded terms. *)
val fixpoint_simplify :
  ?fuel:int -> Catalog.t -> rule list -> Expr.t -> Expr.t * trace

val pp_step : Format.formatter -> step -> unit
