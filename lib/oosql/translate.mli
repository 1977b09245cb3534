(** Type-directed translation of OOSQL into ADL (paper Section 3).

    The sfw-block maps to a map over a selection
    ([select e1 from x in e2 where e3 ⇒ α\[x : e1\](σ\[x : e3\](e2))]);
    typing and translation are interleaved because the algebraic operator
    depends on the type: ['='] is scalar or set equality, paths through
    class references insert [Deref] (the materialize operator), multiple
    from-bindings become flattened nested maps, and integer literals
    compared with dates are coerced. *)

open Njq_adl

exception Translate_error of string * Ast.pos

(** Translate a closed query under a schema. *)
val query : Ast.schema -> Ast.expr -> Expr.t * Vtype.t

(** Parse and translate in one step. *)
val query_string : Ast.schema -> string -> Expr.t * Vtype.t
