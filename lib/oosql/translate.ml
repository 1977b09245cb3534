(* Type-directed translation of OOSQL into ADL (Section 3 of the paper).

   The translation is "simple, almost one-to-one": the sfw-block becomes a
   map over a selection,

     select e1 from x in e2 where e3   =>   alpha[x : e1](sigma[x : e3](e2))

   and everything else maps to its algebraic counterpart.  Typing and
   translation are interleaved because the algebraic operator depends on the
   type: '=' is Cmp on atoms and SetCmp on sets, 'e.a' is a field selection
   on tuples but goes through [Deref] (the materialize operator) on class
   references, multiple from-bindings become nested maps flattened at the
   end, and integer literals compared against dates are coerced. *)

open Njq_adl

exception Translate_error of string * Ast.pos

let err pos fmt = Fmt.kstr (fun s -> raise (Translate_error (s, pos))) fmt

type ctx = {
  schema : Ast.schema;
  extents : (string * Vtype.t) list; (* extent name -> row type *)
}

(* Build the translation context from a schema. *)
let make_ctx (schema : Ast.schema) : ctx =
  { schema;
    extents =
      List.map (fun c -> (c.Ast.extent, Schema.row_type schema c)) schema }

type env = (string * Vtype.t) list

let is_set_type = function Vtype.TSet _ | Vtype.TAny -> true | _ -> false

let elem_type pos = function
  | Vtype.TSet t -> t
  | Vtype.TAny -> Vtype.TAny
  | t -> err pos "expected a set, got %s" (Vtype.show t)

(* Coerce an integer-literal-typed operand to date when compared with a
   date, following the paper's writing of dates as literals (940101). *)
let coerce_date (e1, t1) (e2, t2) =
  match t1, t2, e1, e2 with
  | Vtype.TDate, Vtype.TInt, _, Expr.Const (Value.VInt n) ->
    ((e1, t1), (Expr.Const (Value.date n), Vtype.TDate))
  | Vtype.TInt, Vtype.TDate, Expr.Const (Value.VInt n), _ ->
    ((Expr.Const (Value.date n), Vtype.TDate), (e2, t2))
  | _ -> ((e1, t1), (e2, t2))

(* Translate an expression under variable typings [env], returning the
   ADL expression and its type; raises [Translate_error] with a source
   position on ill-typed input. *)
let rec translate (ctx : ctx) (env : env) (e : Ast.expr) : Expr.t * Vtype.t =
  match e with
  | Ast.ELit (l, _) ->
    (match l with
     | Ast.LBool b -> (Expr.Const (Value.bool b), Vtype.TBool)
     | Ast.LInt n -> (Expr.Const (Value.int n), Vtype.TInt)
     | Ast.LFloat f -> (Expr.Const (Value.float f), Vtype.TFloat)
     | Ast.LString s -> (Expr.Const (Value.string s), Vtype.TString))
  | Ast.EParam (i, _) ->
    (* The value (and thus the type) arrives at bind time; TAny unifies
       with every use site. *)
    (Expr.Param i, Vtype.TAny)
  | Ast.EVar (x, pos) ->
    (match List.assoc_opt x env with
     | Some t -> (Expr.Var x, t)
     | None ->
       (match List.assoc_opt x ctx.extents with
        | Some row -> (Expr.Table x, Vtype.TSet row)
        | None ->
          (* Allow referring to the extent through the class name too. *)
          (match List.find_opt (fun c -> String.equal c.Ast.class_name x) ctx.schema with
           | Some c ->
             (Expr.Table c.Ast.extent,
              Vtype.TSet (List.assoc c.Ast.extent ctx.extents))
           | None -> err pos "unbound variable or unknown extent %s" x)))
  | Ast.EPath (base, a, pos) ->
    let b, tb = translate ctx env base in
    resolve_path ctx pos (b, tb) a
  | Ast.ETuple (fields, pos) ->
    let rec check_dup = function
      | (n, _) :: rest ->
        if List.mem_assoc n rest then err pos "duplicate tuple field %s" n
        else check_dup rest
      | [] -> ()
    in
    check_dup fields;
    let translated = List.map (fun (n, fe) -> (n, translate ctx env fe)) fields in
    ( Expr.Tuple (List.map (fun (n, (fe, _)) -> (n, fe)) translated),
      Vtype.tuple (List.map (fun (n, (_, t)) -> (n, t)) translated) )
  | Ast.ESet (elems, pos) ->
    let translated = List.map (translate ctx env) elems in
    let t =
      List.fold_left
        (fun acc (_, t) ->
          if Vtype.compat acc t then Vtype.lub acc t
          else err pos "heterogeneous set literal: %s vs %s" (Vtype.show acc) (Vtype.show t))
        Vtype.TAny translated
    in
    (Expr.SetLit (List.map fst translated), Vtype.TSet t)
  | Ast.EBin (op, a, b, pos) -> translate_bin ctx env op a b pos
  | Ast.ENot (a, pos) ->
    let a', ta = translate ctx env a in
    if not (Vtype.compat ta Vtype.TBool) then
      err pos "'not' applied to non-boolean %s" (Vtype.show ta);
    (Expr.Not a', Vtype.TBool)
  | Ast.EQuant (q, x, range, pred, pos) ->
    let range', tr = translate ctx env range in
    let elem = elem_type pos tr in
    let pred' =
      match pred with
      | None ->
        (match q with
         | Ast.QExists -> Expr.true_
         | Ast.QForall -> err pos "'forall' requires a predicate after ':'")
      | Some p ->
        let p', tp = translate ctx ((x, elem) :: env) p in
        if not (Vtype.compat tp Vtype.TBool) then
          err pos "quantifier predicate must be boolean, got %s" (Vtype.show tp);
        p'
    in
    let quant = match q with Ast.QExists -> Expr.Exists | Ast.QForall -> Expr.Forall in
    (Expr.Quant (quant, x, range', pred'), Vtype.TBool)
  | Ast.EAgg (agg, src, pos) ->
    let src', ts = translate ctx env src in
    if not (is_set_type ts) then
      err pos "aggregate over non-set type %s" (Vtype.show ts);
    let elem = elem_type pos ts in
    let is_num = function Vtype.TInt | Vtype.TFloat | Vtype.TAny -> true | _ -> false in
    (match agg with
     | Ast.ACount -> (Expr.Agg (Expr.Count, src'), Vtype.TInt)
     | Ast.ASum | Ast.AMin | Ast.AMax ->
       if not (is_num elem) then
         err pos "numeric aggregate over set of %s" (Vtype.show elem);
       let op =
         match agg with
         | Ast.ASum -> Expr.Sum
         | Ast.AMin -> Expr.Min
         | _ -> Expr.Max
       in
       (Expr.Agg (op, src'), match elem with Vtype.TAny -> Vtype.TInt | t -> t)
     | Ast.AAvg ->
       if not (is_num elem) then err pos "avg over set of %s" (Vtype.show elem);
       (Expr.Agg (Expr.Avg, src'), Vtype.TFloat))
  | Ast.ESfw (sfw, pos) -> translate_sfw ctx env sfw pos

(* Attribute selection with implicit dereferencing of class references: the
   materialize operator in logical form. *)
and resolve_path ctx pos (b, tb) a =
  match tb with
  | Vtype.TTuple _ ->
    if Vtype.has_field tb a then (Expr.Field (b, a), Vtype.field tb a)
    else err pos "no attribute %s in %s" a (Vtype.show tb)
  | Vtype.TRef extent ->
    (match List.assoc_opt extent ctx.extents with
     | Some row ->
       if Vtype.has_field row a then
         (Expr.Field (Expr.Deref (extent, b), a), Vtype.field row a)
       else err pos "no attribute %s in objects of extent %s" a extent
     | None -> err pos "reference into unknown extent %s" extent)
  | t -> err pos "attribute %s selected from non-object type %s" a (Vtype.show t)

and translate_bin ctx env op a b pos =
  let ta = translate ctx env a and tb = translate ctx env b in
  let (a', ka), (b', kb) = coerce_date ta tb in
  let bool_result e = (e, Vtype.TBool) in
  let require_compat () =
    if not (Vtype.compat ka kb) then
      err pos "operands of incompatible types %s and %s" (Vtype.show ka) (Vtype.show kb)
  in
  let require_sets () =
    if not (is_set_type ka && is_set_type kb) then
      err pos "set operation requires set operands, got %s and %s" (Vtype.show ka)
        (Vtype.show kb)
  in
  match op with
  | Ast.Add | Ast.Sub | Ast.Mul | Ast.Div | Ast.Mod ->
    (* TAny admits parameter placeholders, whose numeric type arrives at
       bind time; the result type narrows to the known side. *)
    let is_num = function
      | Vtype.TInt | Vtype.TFloat | Vtype.TAny -> true
      | _ -> false
    in
    if not (is_num ka && is_num kb) then
      err pos "arithmetic on non-numeric types %s and %s" (Vtype.show ka) (Vtype.show kb);
    require_compat ();
    let aop =
      match op with
      | Ast.Add -> Expr.Add
      | Ast.Sub -> Expr.Sub
      | Ast.Mul -> Expr.Mul
      | Ast.Div -> Expr.Div
      | _ -> Expr.Mod
    in
    (Expr.Arith (aop, a', b'), (match ka with Vtype.TAny -> kb | _ -> ka))
  | Ast.Eq | Ast.Neq ->
    require_compat ();
    if is_set_type ka && is_set_type kb then
      bool_result
        (Expr.SetCmp ((if op = Ast.Eq then Expr.SetEq else Expr.SetNeq), a', b'))
    else
      bool_result (Expr.Cmp ((if op = Ast.Eq then Expr.Eq else Expr.Neq), a', b'))
  | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge ->
    require_compat ();
    let cop =
      match op with
      | Ast.Lt -> Expr.Lt
      | Ast.Le -> Expr.Le
      | Ast.Gt -> Expr.Gt
      | _ -> Expr.Ge
    in
    bool_result (Expr.Cmp (cop, a', b'))
  | Ast.And | Ast.Or ->
    if not (Vtype.compat ka Vtype.TBool && Vtype.compat kb Vtype.TBool) then
      err pos "boolean connective on %s and %s" (Vtype.show ka) (Vtype.show kb);
    bool_result (if op = Ast.And then Expr.And (a', b') else Expr.Or (a', b'))
  | Ast.Union | Ast.Intersect | Ast.Except ->
    require_sets ();
    require_compat ();
    let t = Vtype.lub ka kb in
    (match op with
     | Ast.Union -> (Expr.Union (a', b'), t)
     | Ast.Intersect -> (Expr.Inter (a', b'), t)
     | _ -> (Expr.Diff (a', b'), t))
  | Ast.In | Ast.NotIn ->
    let elem = elem_type pos kb in
    if not (Vtype.compat ka elem) then
      err pos "'in': %s cannot be an element of a set of %s" (Vtype.show ka)
        (Vtype.show elem);
    bool_result
      (Expr.SetCmp ((if op = Ast.In then Expr.Mem else Expr.NotMem), a', b'))
  | Ast.SubsetEq | Ast.SubsetOp | Ast.SupsetEq | Ast.SupsetOp ->
    require_sets ();
    require_compat ();
    let sop =
      match op with
      | Ast.SubsetEq -> Expr.SubsetEq
      | Ast.SubsetOp -> Expr.Subset
      | Ast.SupsetEq -> Expr.SupsetEq
      | _ -> Expr.Supset
    in
    bool_result (Expr.SetCmp (sop, a', b'))
  | Ast.Contains ->
    let elem = elem_type pos ka in
    if not (Vtype.compat kb elem) then
      err pos "'contains': %s cannot be an element of a set of %s" (Vtype.show kb)
        (Vtype.show elem);
    bool_result (Expr.SetCmp (Expr.Ni, a', b'))

(* The sfw-block.  One from-binding maps to alpha over sigma; additional
   bindings become nested maps whose set-of-sets result is flattened, with
   the where-clause evaluated at the innermost level (equivalent to a
   selection over the product, but directly in the paper's iterator
   style). *)
and translate_sfw ctx env { Ast.proj; froms; where } pos =
  match froms with
  | [] -> err pos "empty from-clause"
  | [ (x, src) ] ->
    let src', ts = translate ctx env src in
    if not (is_set_type ts) then
      err pos "from-clause operand must be a set, got %s" (Vtype.show ts);
    let elem = elem_type pos ts in
    let env' = (x, elem) :: env in
    let filtered =
      match where with
      | None -> src'
      | Some w ->
        let w', tw = translate ctx env' w in
        if not (Vtype.compat tw Vtype.TBool) then
          err pos "where-clause must be boolean, got %s" (Vtype.show tw);
        Expr.Select { var = x; pred = w'; src = src' }
    in
    let body, tbody = translate ctx env' proj in
    (Expr.Map { var = x; body; src = filtered }, Vtype.TSet tbody)
  | (x, src) :: rest ->
    let src', ts = translate ctx env src in
    if not (is_set_type ts) then
      err pos "from-clause operand must be a set, got %s" (Vtype.show ts);
    let elem = elem_type pos ts in
    let env' = (x, elem) :: env in
    let inner, tinner =
      translate_sfw ctx env' { Ast.proj; froms = rest; where } pos
    in
    (Expr.Flatten (Expr.Map { var = x; body = inner; src = src' }), tinner)

(* Entry point: translate a closed OOSQL query under a schema.  Returns the
   ADL expression and its type. *)
let query (schema : Ast.schema) (q : Ast.expr) : Expr.t * Vtype.t =
  Njq_obs.Span.with_span "translate" (fun () -> translate (make_ctx schema) [] q)

(* Parse and translate in one step. *)
let query_string (schema : Ast.schema) (src : string) : Expr.t * Vtype.t =
  query schema (Parser.parse_query src)
