(** Reference evaluator for ADL — a direct transcription of the semantic
    equations (items 1-12) of Section 3.  Iterators evaluate by nested
    loops, so this evaluator realizes exactly the tuple-oriented processing
    the optimizer moves away from, and doubles as the correctness oracle
    for the rewriter and the physical engine.

    Work accounting: evaluating an iterator's parameter function ticks the
    ["nl_pred_eval"] counter; drawing a tuple from an operand ticks
    ["nl_tuple_visit"] (see {!Njq_obs.Metrics}). *)

type env = (string * Value.t) list

exception Eval_error of string

(** Evaluate under an environment for free variables. *)
val eval : Catalog.t -> env -> Expr.t -> Value.t

(** Evaluate a closed expression. *)
val run : Catalog.t -> Expr.t -> Value.t

(** {1 Scalar helpers} (shared with the constant folder and the engine) *)

val eval_arith : Expr.arith -> Value.t -> Value.t -> Value.t
val eval_cmp : Expr.cmp -> Value.t -> Value.t -> bool
val eval_setcmp : Expr.setcmp -> Value.t -> Value.t -> bool
val eval_agg : Expr.agg -> Value.t -> Value.t

(** [eval_nest attrs into elems] is the grouping semantics of
    [Nest { attrs; into; _ }] applied to already-evaluated elements. *)
val eval_nest : string list -> string -> Value.t list -> Value.t

(** Relational division on already-evaluated operands. *)
val eval_divide : Value.t -> Value.t -> Value.t
