(** Expansion of named view definitions — the paper's "named intermediate
    tables", whose expansion is the source of from-clause nesting
    (Section 2, Example Query 2).

    Views are closed OOSQL expressions bound with [define v as <query>;];
    expansion splices each definition at every non-shadowed use of its
    name.  Views may reference previously defined views. *)

exception View_error of string * Ast.pos

(** Expand all definitions (in order) inside an expression. *)
val expand : (string * Ast.expr) list -> Ast.expr -> Ast.expr

(** Expand a program's query against its view definitions. *)
val expand_program : Ast.program -> Ast.expr option
