(** Paper-style pretty-printing of ADL expressions: map is α[x : e](src),
    selection σ[x : p](src), joins are infix with the predicate in
    brackets, unnest/nest are μ/ν.  Output is meant to be read next to the
    paper (see bin/paper_artifacts.ml). *)

val pp : Format.formatter -> Expr.t -> unit
val to_string : Expr.t -> string
