(** Pretty-printer for OOSQL abstract syntax.  Output re-parses to the same
    AST (modulo positions); the round trip is tested. *)

val to_string : Ast.expr -> string
val pp_schema : Format.formatter -> Ast.schema -> unit
