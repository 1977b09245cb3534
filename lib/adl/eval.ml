(* Reference evaluator for ADL.

   This is a direct transcription of the semantic equations (items 1-12) in
   Section 3 of the paper.  Iterators are evaluated by nested loops, so this
   evaluator realizes exactly the tuple-oriented query processing that the
   optimizer tries to move away from; it doubles as the correctness oracle
   for both the rewriter (rewrites must preserve [eval]) and the physical
   engine (plans must compute [eval] of their logical expression).

   Work accounting: every evaluation of an iterator's parameter function on
   one element ticks the "nl_pred_eval" counter, and every tuple drawn from
   an operand ticks "nl_tuple_visit".  Comparing these counters between the
   original nested expression and its unnested form quantifies the paper's
   tuple- vs set-oriented claim independently of timing noise. *)

open Expr

type env = (string * Value.t) list

exception Eval_error of string

let eval_error fmt = Fmt.kstr (fun s -> raise (Eval_error s)) fmt

let lookup env x =
  match List.assoc_opt x env with
  | Some v -> v
  | None -> eval_error "unbound variable %s" x

(* The two work counters are on the evaluator's innermost loops; intern
   their handles once instead of paying a registry probe per tick. *)
module M = Njq_obs.Metrics

let c_tuple_visit = M.counter "nl_tuple_visit"
let c_pred_eval = M.counter "nl_pred_eval"

let visit v =
  M.incr c_tuple_visit;
  v

let rec eval (cat : Catalog.t) (env : env) (e : Expr.t) : Value.t =
  match e with
  | Const v -> v
  | Var x -> lookup env x
  (* Unbound unless the caller supplied a binding under "?i" (the serve
     layer substitutes parameters away before execution; the env path
     supports direct evaluation of expressions with parameters in tests). *)
  | Param i -> lookup env (Expr.param_name i)
  | Table name -> Value.VSet (Catalog.rows cat name)
  | Tuple fields ->
    Value.tuple (List.map (fun (n, x) -> (n, eval cat env x)) fields)
  | Field (x, a) -> Value.field (eval cat env x) a
  | TupleProj (x, attrs) -> Value.project (eval cat env x) attrs
  | Except (x, updates) ->
    let base = eval cat env x in
    Value.except base (List.map (fun (n, u) -> (n, eval cat env u)) updates)
  | Concat (a, b) -> Value.concat (eval cat env a) (eval cat env b)
  | SetLit xs -> Value.set (List.map (eval cat env) xs)
  | Arith (op, a, b) -> eval_arith op (eval cat env a) (eval cat env b)
  | Cmp (op, a, b) -> Value.bool (eval_cmp op (eval cat env a) (eval cat env b))
  | SetCmp (op, a, b) ->
    Value.bool (eval_setcmp op (eval cat env a) (eval cat env b))
  | And (a, b) ->
    (* Short-circuit, left to right. *)
    if Value.as_bool (eval cat env a) then eval cat env b else Value.bool false
  | Or (a, b) ->
    if Value.as_bool (eval cat env a) then Value.bool true else eval cat env b
  | Not a -> Value.bool (not (Value.as_bool (eval cat env a)))
  | If (c, a, b) ->
    if Value.as_bool (eval cat env c) then eval cat env a else eval cat env b
  | Quant (q, x, range, pred) ->
    let elems = Value.as_set (eval cat env range) in
    let holds v =
      M.incr c_pred_eval;
      Value.as_bool (eval cat ((x, visit v) :: env) pred)
    in
    Value.bool
      (match q with
       | Exists -> List.exists holds elems
       | Forall -> List.for_all holds elems)
  | Map { var; body; src } ->
    let elems = Value.as_set (eval cat env src) in
    Value.set
      (List.map
         (fun v ->
           M.incr c_pred_eval;
           eval cat ((var, visit v) :: env) body)
         elems)
  | Select { var; pred; src } ->
    let elems = Value.as_set (eval cat env src) in
    Value.set
      (List.filter
         (fun v ->
           M.incr c_pred_eval;
           Value.as_bool (eval cat ((var, visit v) :: env) pred))
         elems)
  | Project (attrs, src) ->
    let elems = Value.as_set (eval cat env src) in
    Value.set (List.map (fun v -> Value.project (visit v) attrs) elems)
  | Flatten src -> Value.flatten (eval cat env src)
  | Union (a, b) -> Value.union (eval cat env a) (eval cat env b)
  | Inter (a, b) -> Value.inter (eval cat env a) (eval cat env b)
  | Diff (a, b) -> Value.diff (eval cat env a) (eval cat env b)
  | Product (a, b) ->
    let xs = Value.as_set (eval cat env a) and ys = Value.as_set (eval cat env b) in
    Value.set
      (List.concat_map
         (fun x -> List.map (fun y -> Value.concat (visit x) (visit y)) ys)
         xs)
  | Join { kind; xvar; yvar; pred; left; right } ->
    eval_join cat env kind xvar yvar pred left right
  | Nestjoin { xvar; yvar; pred; body; attr; left; right } ->
    let xs = Value.as_set (eval cat env left)
    and ys = Value.as_set (eval cat env right) in
    let row x =
      let matches =
        List.filter_map
          (fun y ->
            M.incr c_pred_eval;
            let env' = (xvar, x) :: (yvar, visit y) :: env in
            if Value.as_bool (eval cat env' pred) then
              Some (eval cat env' body)
            else None)
          ys
      in
      Value.concat (visit x) (Value.tuple [ (attr, Value.set matches) ])
    in
    Value.set (List.map row xs)
  | Rename (pairs, src) ->
    let elems = Value.as_set (eval cat env src) in
    let rename_row row =
      Value.tuple
        (List.map
           (fun (n, v) ->
             match List.assoc_opt n pairs with
             | Some n' -> (n', v)
             | None -> (n, v))
           (Value.as_tuple (visit row)))
    in
    Value.set (List.map rename_row elems)
  | Unnest (a, src) ->
    let elems = Value.as_set (eval cat env src) in
    let unnest_one x =
      let rest = Value.project_away (visit x) [ a ] in
      (* Set-of-tuples attributes concatenate their element fields; sets of
         atomic values (e.g. sets of oid references) keep the attribute name
         for the unnested value. *)
      let as_row inner =
        match inner with
        | Value.VTuple _ -> inner
        | atom -> Value.tuple [ (a, atom) ]
      in
      List.map
        (fun inner -> Value.concat (as_row inner) rest)
        (Value.as_set (Value.field x a))
    in
    Value.set (List.concat_map unnest_one elems)
  | Nest { attrs; into; src } ->
    let elems = Value.as_set (eval cat env src) in
    eval_nest attrs into elems
  | Divide (a, b) -> eval_divide (eval cat env a) (eval cat env b)
  | Agg (op, src) -> eval_agg op (eval cat env src)
  | Deref (cls, x) -> Catalog.deref cat cls (eval cat env x)

and eval_join cat env kind xvar yvar pred left right =
  let xs = Value.as_set (eval cat env left)
  and ys = Value.as_set (eval cat env right) in
  let matches x =
    List.filter
      (fun y ->
        M.incr c_pred_eval;
        Value.as_bool (eval cat ((xvar, x) :: (yvar, visit y) :: env) pred))
      ys
  in
  match kind with
  | Inner ->
    Value.set
      (List.concat_map
         (fun x -> List.map (Value.concat (visit x)) (matches x))
         xs)
  | Semi ->
    Value.set (List.filter (fun x -> matches (visit x) <> []) xs)
  | Anti ->
    Value.set (List.filter (fun x -> matches (visit x) = []) xs)
  | LeftOuter pad ->
    let null_row = Value.tuple (List.map (fun a -> (a, Value.VNull)) pad) in
    Value.set
      (List.concat_map
         (fun x ->
           match matches (visit x) with
           | [] -> [ Value.concat x null_row ]
           | ms -> List.map (Value.concat x) ms)
         xs)

(* nu_{A -> a}(e), semantics item 9: group on the complement attributes B and
   collect the A-projections of each group into set-valued attribute a. *)
and eval_nest attrs into elems =
  match elems with
  | [] -> Value.empty_set
  | first :: _ ->
    let all_fields = Value.field_names first in
    let group_by = List.filter (fun f -> not (List.mem f attrs)) all_fields in
    let key x = Value.project x group_by in
    let groups = Hashtbl.create 16 in
    let order = ref [] in
    List.iter
      (fun x ->
        let k = key (visit x) in
        let member = Value.project x attrs in
        match Hashtbl.find_opt groups k with
        | Some members -> members := member :: !members
        | None ->
          Hashtbl.add groups k (ref [ member ]);
          order := k :: !order)
      elems;
    Value.set
      (List.map
         (fun k ->
           let members = !(Hashtbl.find groups k) in
           Value.concat k (Value.tuple [ (into, Value.set members) ]))
         !order)

(* Relational division: SCH(a) = A + B, SCH(b) = B; the result contains the
   A-projections x[A] such that {x[A]} x b is included in a. *)
and eval_divide a b =
  let xs = Value.as_set a and ys = Value.as_set b in
  match xs, ys with
  | [], _ -> Value.empty_set
  | _, [] ->
    (* The divisor schema is not observable from an empty set at run time;
       we adopt B = {} so the quotient is the dividend itself.  The planner
       only produces divisions with statically known non-degenerate types. *)
    Value.set xs
  | x :: _, y :: _ ->
    let b_attrs = Value.field_names y in
    let a_attrs =
      List.filter (fun f -> not (List.mem f b_attrs)) (Value.field_names x)
    in
    let quotient_candidates =
      List.sort_uniq Value.compare (List.map (fun v -> Value.project v a_attrs) xs)
    in
    let holds q =
      List.for_all
        (fun y ->
          M.incr c_pred_eval;
          List.exists (fun x -> Value.equal x (Value.concat q y)) xs)
        ys
    in
    Value.set (List.filter holds quotient_candidates)

and eval_arith op a b =
  match a, b with
  | Value.VInt x, Value.VInt y ->
    Value.int
      (match op with
       | Add -> x + y
       | Sub -> x - y
       | Mul -> x * y
       | Div -> if y = 0 then eval_error "division by zero" else x / y
       | Mod -> if y = 0 then eval_error "modulo by zero" else x mod y)
  | Value.VFloat x, Value.VFloat y ->
    Value.float
      (match op with
       | Add -> x +. y
       | Sub -> x -. y
       | Mul -> x *. y
       | Div -> x /. y
       | Mod -> Float.rem x y)
  | _ -> eval_error "arithmetic on non-numeric or mixed operands"

and eval_cmp op a b =
  (* NULL (from outer-join padding) compares equal only to itself under Eq,
     and is less than every other value, consistent with [Value.compare]. *)
  let c = Value.compare a b in
  match op with
  | Eq -> c = 0
  | Neq -> c <> 0
  | Lt -> c < 0
  | Le -> c <= 0
  | Gt -> c > 0
  | Ge -> c >= 0

and eval_setcmp op a b =
  match op with
  | Mem -> Value.mem a b
  | NotMem -> not (Value.mem a b)
  | SubsetEq -> Value.subset_eq a b
  | Subset -> Value.subset a b
  | SupsetEq -> Value.subset_eq b a
  | Supset -> Value.subset b a
  | SetEq -> Value.equal a b
  | SetNeq -> not (Value.equal a b)
  | Ni -> Value.mem b a
  | NotNi -> not (Value.mem b a)

and eval_agg op src =
  let elems = Value.as_set src in
  match op with
  | Count -> Value.int (List.length elems)
  | Sum ->
    List.fold_left
      (fun acc v -> eval_arith Add acc v)
      (match elems with
       | Value.VFloat _ :: _ -> Value.float 0.0
       | _ -> Value.int 0)
      elems
  | Min ->
    (match elems with
     | [] -> eval_error "min of empty set"
     | x :: rest -> List.fold_left (fun a b -> if Value.compare b a < 0 then b else a) x rest)
  | Max ->
    (match elems with
     | [] -> eval_error "max of empty set"
     | x :: rest -> List.fold_left (fun a b -> if Value.compare b a > 0 then b else a) x rest)
  | Avg ->
    (match elems with
     | [] -> eval_error "avg of empty set"
     | _ ->
       let n = List.length elems in
       let as_float = function
         | Value.VInt i -> float_of_int i
         | Value.VFloat f -> f
         | _ -> eval_error "avg of non-numeric set"
       in
       Value.float (List.fold_left (fun acc v -> acc +. as_float v) 0.0 elems /. float_of_int n))

(* Evaluate a closed expression (no free variables). *)
let run cat e = eval cat [] e
