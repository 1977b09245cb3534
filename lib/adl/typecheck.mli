(** Type inference for ADL expressions against a catalog.

    Empty set literals get element type [TAny]; compatibility is
    {!Vtype.compat} ([TAny] unifies with anything, [TRef] with [TOid]). *)

type env = (string * Vtype.t) list

(** [infer cat env e] is the type of [e] with free-variable types from
    [env] and table types from [cat].  Raises [Vtype.Type_error] with a
    descriptive message on ill-typed expressions. *)
val infer : Catalog.t -> env -> Expr.t -> Vtype.t

(** Typecheck a closed query expression. *)
val check_closed : Catalog.t -> Expr.t -> (Vtype.t, string) result
