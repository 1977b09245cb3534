(** The paper's query corpus: Example Queries 1-6 in OOSQL source form
    against the supplier–part–delivery schema, and the abstract tables of
    Figures 1-3. *)

open Njq_adl

(** The Section 2 schema. *)
val schema : Njq_oosql.Ast.schema

type query = {
  id : string;  (** experiment id, e.g. "EQ4" *)
  title : string;
  oosql : string;
  needs_integrity : bool;
      (** dereferences part/supplier pointers, so the data must have no
          dangling references *)
}

val all : query list

(** Extended corpus beyond the paper's examples (Section 7's future-work
    directions): three nesting levels (EQ7), two subqueries in one
    predicate (EQ8), nested grouping (EQ9). *)

val q7 : query
val q8 : query
val q9 : query
val extended : query list

(** Find by id among [all] and [extended]; raises [Invalid_argument] on
    unknown ids. *)
val find : string -> query

(** Parse and translate a corpus query to ADL. *)
val to_adl : query -> Expr.t

(** {1 Figure fixtures} *)

(** Figure 1/2 tables: X(a, c:{int}) with the dangling tuple ⟨a=2, c=∅⟩,
    Y(d, e). *)
val fig2_catalog : unit -> Catalog.t

(** The Figure 1/2 query [σ\[x : x.c ⊆ α\[y:y.e\](σ\[y: x.a=y.d\](Y))\](X)]. *)
val fig2_query : Expr.t

(** Figure 3 tables and the nestjoin query over them. *)
val fig3_catalog : unit -> Catalog.t

val fig3_query : Expr.t

(** The Section 6.2 materialization query: replace each supplier's part
    references by the referenced part objects. *)
val materialize_parts_query : Expr.t
