(* Set-oriented batching of prepared-query invocations.

   The paper replaces repeated nested-loop invocation of a subquery with
   one set-oriented join; this module replays that move at the traffic
   layer (Guravannavar's batching of repeated procedure/query calls).
   Given a query with parameters e(?0, ..., ?n-1) and K outstanding
   invocations, we form a *parameter table*

     { (__cid = c_k, __p0 = v_k0, ..., __pn-1 = v_kn-1) | k < K }

   and rewrite the K runs into the single nested query

     map[w : (__cid = w.__cid, __rows = e[?i := w.__pi])](params)

   — a correlated subquery over the parameter table, which is exactly the
   shape the Section 4 strategy unnests into joins/nestjoins against the
   plan body.  Splitting the result on __cid routes each client its row
   set; Map totality guarantees every parameter tuple yields exactly one
   result tuple, so no client is ever dropped.

   Everything here is expression-level (no engine dependency): the serve
   layer owns plan caching and splicing of the materialized parameter
   table. *)

open Njq_adl

let cid_field = "__cid"
let rows_field = "__rows"
let param_field i = "__p" ^ string_of_int i

(* 1 + the highest parameter index used (parameters need not be dense;
   unused indexes simply become ignored parameter-table columns). *)
let rec param_count (e : Expr.t) : int =
  match e with
  | Expr.Param i -> i + 1
  | _ -> Expr.fold_children (fun acc c -> max acc (param_count c)) 0 e

let row_type ~nparams : Vtype.t =
  Vtype.tuple
    ((cid_field, Vtype.TInt)
    :: List.init nparams (fun i -> (param_field i, Vtype.TAny)))

(* One parameter-table row.  Callers canonicalize the full table with
   [Value.set]; distinct [cid]s make rows distinct even under equal
   parameter vectors, so no invocation collapses away. *)
let param_row ~cid (values : Value.t list) : Value.t =
  Value.tuple
    ((cid_field, Value.int cid)
    :: List.mapi (fun i v -> (param_field i, v)) values)

(* The batched form: a map over the parameter table whose body pairs each
   invocation id with that invocation's full result set.  Downstream, the
   ordinary rewrite strategy unnests the correlated body — the paper's
   nested-loop → join move applied to the invocation batch; if no rule
   fires the map still evaluates correctly as a nested loop. *)
let batched ~params_table ~nparams (e : Expr.t) : Expr.t =
  let w = Expr.fresh_var "pb" in
  let bindings =
    List.init nparams (fun i ->
        (Expr.param_name i, Expr.Field (Expr.Var w, param_field i)))
  in
  Expr.Map
    { var = w;
      body =
        Expr.Tuple
          [ (cid_field, Expr.Field (Expr.Var w, cid_field));
            (rows_field, Analysis.subst bindings e) ];
      src = Expr.Table params_table }

(* Split a batched result into per-invocation results, keyed by cid.
   Each element of the batched set is a (__cid, __rows) pair; __rows is
   already a canonical value, bit-identical to what the unbatched run of
   the same parameters returns. *)
let split (v : Value.t) : (int * Value.t) list =
  match v with
  | Value.VSet rows ->
    List.map
      (fun r -> (Value.as_int (Value.field r cid_field), Value.field r rows_field))
      rows
  | _ -> invalid_arg "Batchrw.split: batched result is not a set"
