(** Set-oriented batching of prepared-query invocations: K runs of a
    query with parameters become one map over a parameter table — a
    correlated subquery the Section 4 strategy unnests into joins, the
    paper's nested-loop → join move applied to the invocation batch. *)

open Njq_adl

(** 1 + the highest [Param] index in the expression (0 when none). *)
val param_count : Expr.t -> int

(** Row type of a parameter table with [nparams] parameter columns. *)
val row_type : nparams:int -> Vtype.t

(** One parameter-table row: [(__cid = cid, __p0 = v0, ...)].  Distinct
    cids keep rows distinct under set semantics even when two invocations
    share a parameter vector. *)
val param_row : cid:int -> Value.t list -> Value.t

(** [batched ~params_table ~nparams e] is
    [map\[w : (__cid = w.__cid, __rows = e\[?i := w.__pi\])\](@params_table)].
    Map totality guarantees one result tuple per parameter row. *)
val batched : params_table:string -> nparams:int -> Expr.t -> Expr.t

(** Split a batched result set into [(cid, rows)] pairs; each [rows] value
    is bit-identical to the unbatched run of that invocation. *)
val split : Value.t -> (int * Value.t) list
