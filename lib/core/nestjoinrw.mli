(** The nestjoin rewrite (Section 6.1): unnesting nested queries that
    require grouping without losing dangling left tuples.

    - [σ\[x : P(x,Y')\](X)  ⇒  π_SCH(X)(σ\[z : P'\](X ⊣\[x,y : Q ; g\] Y))]
    - [α\[x : F(x,Y')\](X)  ⇒  α\[z : F'\](X ⊣\[x,y : Q ; g\] Y)]

    where [P' = P\[z\[SCH(X)\]/x, z.g/Y'\]] and the extended nestjoin
    carries the subquery's map body G when not the identity. *)

open Njq_adl

(** Replace the subquery occurrence by [by] and the outer variable by
    [z\[SCH(X)\]] in a parameter expression. *)
val retarget_with :
  x:string -> z:string -> sch_x:string list -> occurrence:Expr.t ->
  by:Expr.t -> Expr.t -> Expr.t

val rules : Rules.rule list
