(* Compile-once, run-per-tuple parameter expressions.

   The physical engine's operators apply parameter expressions (join keys,
   filter predicates, residuals, map and nestjoin bodies) to every tuple.
   Interpreting them with [Eval.eval] pays a per-tuple tax that has nothing
   to do with the query: AST dispatch on every node, an assoc-list
   environment allocated and searched per variable reference, and repeated
   evaluation of closed subexpressions.  [expr] removes that tax by
   translating the expression once into an OCaml closure over a slot
   environment — a [Value.t array] whose slot [i] holds the value of
   [List.nth vars i]:

   - variable references are resolved to array slots at compile time;
   - closed subexpressions (Section 3: "uncorrelated subqueries simply are
     constants") are evaluated once at compile time and embedded as
     constants, with failures deferred to the first run-time use so that
     short-circuited branches keep their interpreted behavior;
   - iterators extend the slot environment by one copy per invocation and
     mutate the binder slot per element, instead of consing a new assoc
     cell per element.

   The compiled layer is observationally equivalent to the reference
   evaluator: for every environment, the closure returns the same value (or
   raises the same exception) as [Eval.eval] — [test/test_compile.ml]
   enforces the agreement on generated expressions and environments.  The
   one intentional difference is accounting: compiled closures do not tick
   the per-tuple ["nl_pred_eval"]/["nl_tuple_visit"] counters, because
   eliminating exactly that per-tuple interpretive work is their purpose
   (the engine's own operator counters are unaffected). *)

open Expr

type t = Value.t array -> Value.t

(* Slot of the innermost binding of [x].  Assoc-environment shadowing is
   modelled by appending binders to the compile-time variable list, so the
   last occurrence wins. *)
let slot vars x =
  let rec go i best = function
    | [] -> best
    | v :: rest -> go (i + 1) (if String.equal v x then Some i else best) rest
  in
  go 0 None vars

(* Copy [env] into an array with [k] extra (binder) slots. *)
let grow k env =
  let n = Array.length env in
  let env' = Array.make (n + k) Value.VNull in
  Array.blit env 0 env' 0 n;
  env'

(* A closed subexpression denotes a constant: evaluate it once now.  A
   failure is captured and re-raised at run time, because the interpreter
   only fails if evaluation actually reaches the subexpression (it may sit
   in a short-circuited conjunct or an untaken [If] branch). *)
let fold_closed cat e : t =
  match Eval.run cat e with
  | v -> fun _ -> v
  | exception exn -> fun _ -> raise exn

(* A catalog access resolved on the closure's first call and kept for its
   lifetime: [deref⟨C⟩] looks C's oid index up once per compiled closure,
   not once per row, and an unknown extent still fails only when the
   expression runs.  Spawned instances share the compiled code across
   pool domains, hence the [Atomic]; a lost race resolves the same index
   twice. *)
let resolve_once f =
  let cell = Atomic.make None in
  fun () ->
    match Atomic.get cell with
    | Some g -> g
    | None ->
      let g = f () in
      Atomic.set cell (Some g);
      g

let rec compile cat (vars : string list) (e : Expr.t) : t =
  match e with
  | Const v -> fun _ -> v
  | _ when Analysis.is_closed e -> fold_closed cat e
  | Var x ->
    (match slot vars x with
     | Some i -> fun env -> Array.unsafe_get env i
     | None ->
       (* Unreachable variables fail only when forced, like [Eval.lookup]. *)
       fun _ -> raise (Eval.Eval_error ("unbound variable " ^ x)))
  | Param i ->
    (* Parameters compile exactly like free variables named "?i"; the serve
       layer substitutes them away before planning, so reaching execution
       with one still unbound is an error deferred to first use. *)
    let x = param_name i in
    (match slot vars x with
     | Some idx -> fun env -> Array.unsafe_get env idx
     | None -> fun _ -> raise (Eval.Eval_error ("unbound parameter " ^ x)))
  | Table name -> fun _ -> Value.VSet (Catalog.rows cat name)
  | Tuple fields ->
    let cs = List.map (fun (n, x) -> (n, compile cat vars x)) fields in
    fun env -> Value.tuple (List.map (fun (n, c) -> (n, c env)) cs)
  | Field (Deref (cls, x), a) ->
    (* Pointer-based attribute read: one position lookup in C's oid index
       and one read of C's column for [a] ([Catalog.deref_field]). *)
    let c = compile cat vars x in
    let read = resolve_once (fun () -> Catalog.deref_field cat cls a) in
    fun env ->
      let r = c env in
      read () r
  | Field (x, a) ->
    let c = compile cat vars x in
    fun env -> Value.field (c env) a
  | TupleProj (x, attrs) ->
    let c = compile cat vars x in
    fun env -> Value.project (c env) attrs
  | Except (x, updates) ->
    let cx = compile cat vars x in
    let cus = List.map (fun (n, u) -> (n, compile cat vars u)) updates in
    fun env -> Value.except (cx env) (List.map (fun (n, c) -> (n, c env)) cus)
  | Concat (a, b) ->
    let ca = compile cat vars a and cb = compile cat vars b in
    fun env -> Value.concat (ca env) (cb env)
  | SetLit xs ->
    let cs = List.map (compile cat vars) xs in
    fun env -> Value.set (List.map (fun c -> c env) cs)
  | Arith (op, a, b) ->
    let ca = compile cat vars a and cb = compile cat vars b in
    fun env -> Eval.eval_arith op (ca env) (cb env)
  | Cmp (op, a, b) ->
    let ca = compile cat vars a and cb = compile cat vars b in
    fun env -> Value.bool (Eval.eval_cmp op (ca env) (cb env))
  | SetCmp (op, a, b) ->
    let ca = compile cat vars a and cb = compile cat vars b in
    fun env -> Value.bool (Eval.eval_setcmp op (ca env) (cb env))
  | And (a, b) ->
    let ca = compile cat vars a and cb = compile cat vars b in
    fun env -> if Value.as_bool (ca env) then cb env else Value.bool false
  | Or (a, b) ->
    let ca = compile cat vars a and cb = compile cat vars b in
    fun env -> if Value.as_bool (ca env) then Value.bool true else cb env
  | Not a ->
    let ca = compile cat vars a in
    fun env -> Value.bool (not (Value.as_bool (ca env)))
  | If (c, a, b) ->
    let cc = compile cat vars c in
    let ca = compile cat vars a and cb = compile cat vars b in
    fun env -> if Value.as_bool (cc env) then ca env else cb env
  | Quant (q, x, range, pred) ->
    let crange = compile cat vars range in
    let n = List.length vars in
    let cpred = compile cat (vars @ [ x ]) pred in
    fun env ->
      let elems = Value.as_set (crange env) in
      let env' = grow 1 env in
      let holds v =
        env'.(n) <- v;
        Value.as_bool (cpred env')
      in
      Value.bool
        (match q with
         | Exists -> List.exists holds elems
         | Forall -> List.for_all holds elems)
  | Map { var; body; src } ->
    let csrc = compile cat vars src in
    let n = List.length vars in
    let cbody = compile cat (vars @ [ var ]) body in
    fun env ->
      let elems = Value.as_set (csrc env) in
      let env' = grow 1 env in
      Value.set
        (List.map
           (fun v ->
             env'.(n) <- v;
             cbody env')
           elems)
  | Select { var; pred; src } ->
    let csrc = compile cat vars src in
    let n = List.length vars in
    let cpred = compile cat (vars @ [ var ]) pred in
    fun env ->
      let elems = Value.as_set (csrc env) in
      let env' = grow 1 env in
      Value.set
        (List.filter
           (fun v ->
             env'.(n) <- v;
             Value.as_bool (cpred env'))
           elems)
  | Project (attrs, src) ->
    let c = compile cat vars src in
    fun env ->
      Value.set (List.map (fun v -> Value.project v attrs) (Value.as_set (c env)))
  | Flatten src ->
    let c = compile cat vars src in
    fun env -> Value.flatten (c env)
  | Union (a, b) ->
    let ca = compile cat vars a and cb = compile cat vars b in
    fun env -> Value.union (ca env) (cb env)
  | Inter (a, b) ->
    let ca = compile cat vars a and cb = compile cat vars b in
    fun env -> Value.inter (ca env) (cb env)
  | Diff (a, b) ->
    let ca = compile cat vars a and cb = compile cat vars b in
    fun env -> Value.diff (ca env) (cb env)
  | Product (a, b) ->
    let ca = compile cat vars a and cb = compile cat vars b in
    fun env ->
      let xs = Value.as_set (ca env) and ys = Value.as_set (cb env) in
      Value.set
        (List.concat_map (fun x -> List.map (fun y -> Value.concat x y) ys) xs)
  | Join { kind; xvar; yvar; pred; left; right } ->
    let cleft = compile cat vars left and cright = compile cat vars right in
    let n = List.length vars in
    (* Binders appended in reverse precedence order: the reference env is
       [(xvar, x) :: (yvar, y) :: outer], so [xvar] must shadow [yvar] when
       the names collide — the last occurrence wins in [slot]. *)
    let cpred = compile cat (vars @ [ yvar; xvar ]) pred in
    fun env ->
      let xs = Value.as_set (cleft env) and ys = Value.as_set (cright env) in
      let env' = grow 2 env in
      let matches x =
        env'.(n + 1) <- x;
        List.filter
          (fun y ->
            env'.(n) <- y;
            Value.as_bool (cpred env'))
          ys
      in
      (match kind with
       | Inner ->
         Value.set
           (List.concat_map
              (fun x -> List.map (Value.concat x) (matches x))
              xs)
       | Semi -> Value.set (List.filter (fun x -> matches x <> []) xs)
       | Anti -> Value.set (List.filter (fun x -> matches x = []) xs)
       | LeftOuter pad ->
         let null_row = Value.tuple (List.map (fun a -> (a, Value.VNull)) pad) in
         Value.set
           (List.concat_map
              (fun x ->
                match matches x with
                | [] -> [ Value.concat x null_row ]
                | ms -> List.map (Value.concat x) ms)
              xs))
  | Nestjoin { xvar; yvar; pred; body; attr; left; right } ->
    let cleft = compile cat vars left and cright = compile cat vars right in
    let n = List.length vars in
    let inner = vars @ [ yvar; xvar ] in
    let cpred = compile cat inner pred and cbody = compile cat inner body in
    fun env ->
      let xs = Value.as_set (cleft env) and ys = Value.as_set (cright env) in
      let env' = grow 2 env in
      let row x =
        env'.(n + 1) <- x;
        let matches =
          List.filter_map
            (fun y ->
              env'.(n) <- y;
              if Value.as_bool (cpred env') then Some (cbody env') else None)
            ys
        in
        Value.concat x (Value.tuple [ (attr, Value.set matches) ])
      in
      Value.set (List.map row xs)
  | Rename (pairs, src) ->
    let c = compile cat vars src in
    fun env -> Value.set (List.map (Value.rename pairs) (Value.as_set (c env)))
  | Unnest (a, src) ->
    let c = compile cat vars src in
    fun env ->
      let unnest_one x =
        let rest = Value.project_away x [ a ] in
        let as_row inner =
          match inner with
          | Value.VTuple _ -> inner
          | atom -> Value.tuple [ (a, atom) ]
        in
        List.map
          (fun inner -> Value.concat (as_row inner) rest)
          (Value.as_set (Value.field x a))
      in
      Value.set (List.concat_map unnest_one (Value.as_set (c env)))
  | Nest { attrs; into; src } ->
    let c = compile cat vars src in
    fun env -> Eval.eval_nest attrs into (Value.as_set (c env))
  | Divide (a, b) ->
    let ca = compile cat vars a and cb = compile cat vars b in
    fun env -> Eval.eval_divide (ca env) (cb env)
  | Agg (op, src) ->
    let c = compile cat vars src in
    fun env -> Eval.eval_agg op (c env)
  | Deref (cls, x) ->
    let c = compile cat vars x in
    let deref = resolve_once (fun () -> Catalog.deref cat cls) in
    fun env ->
      let r = c env in
      deref () r

let expr cat ~vars e = compile cat vars e

(* Arity-specialized entry points for the engine's operators.  Each
   instantiation reuses one preallocated slot buffer across calls: compiled
   closures use their environment synchronously and never retain it, and
   the engine applies a given closure strictly sequentially *on one
   domain*, so the buffer is never live across two invocations.

   That per-instantiation buffer is exactly what makes a single closure
   unsafe to share between domains.  The [_spawner] variants therefore
   split the two costs: [expr1_spawner] pays the compilation once and
   returns a thunk that mints a fresh closure — fresh buffer, shared
   compiled code — so the engine's parallel operators can hand each pool
   domain its own instance.  The compiled closures themselves are safe to
   share: [compile] produces code that only reads immutable structure and
   [grow]s a private copy of the environment per iterator invocation. *)

let expr1_spawner cat ~var e =
  let c = compile cat [ var ] e in
  fun () ->
    let buf = [| Value.VNull |] in
    fun v ->
      buf.(0) <- v;
      c buf

let expr1 cat ~var e = expr1_spawner cat ~var e ()

let pred1_spawner cat ~var e =
  let s = expr1_spawner cat ~var e in
  fun () ->
    let f = s () in
    fun v -> Value.as_bool (f v)

let pred1 cat ~var e = pred1_spawner cat ~var e ()

let expr2_spawner cat ~vars:(a, b) e =
  if String.equal a b then
    (* The reference env is [(a, va) :: (b, vb) :: []], so [a] shadows [b]
       entirely when the names collide. *)
    let s = expr1_spawner cat ~var:a e in
    fun () ->
      let f = s () in
      fun va _ -> f va
  else
    let c = compile cat [ a; b ] e in
    fun () ->
      let buf = [| Value.VNull; Value.VNull |] in
      fun va vb ->
        buf.(0) <- va;
        buf.(1) <- vb;
        c buf

let expr2 cat ~vars e = expr2_spawner cat ~vars e ()

let pred2_spawner cat ~vars e =
  let s = expr2_spawner cat ~vars e in
  fun () ->
    let f = s () in
    fun va vb -> Value.as_bool (f va vb)

(* ------------------------------------------------------------------ *)
(* Row makers                                                          *)
(*                                                                     *)
(* A map body that is a tuple literal with distinct field names can     *)
(* skip [Value.tuple]'s per-row sort: sort the (name, compiled field)   *)
(* pairs once at compile time and build the sorted field list directly  *)
(* through [Value.of_sorted_fields].  Field expressions therefore       *)
(* evaluate in sorted-name order rather than source order — observable  *)
(* only through exception *ordering* when two fields both fail, which   *)
(* no current caller distinguishes.                                     *)
(* ------------------------------------------------------------------ *)

let expr1_rowmaker cat ~var (e : Expr.t) : (Value.t -> Value.t) option =
  match e with
  | _ when Analysis.is_closed e ->
    (* A closed body folds to one shared constant in [expr1]; building a
       fresh tuple per row would only allocate more. *)
    None
  | Tuple fields ->
    let names = List.map fst fields in
    if List.length (List.sort_uniq String.compare names) <> List.length names
    then None (* duplicate names: fall back so [Value.tuple] raises per row *)
    else begin
      let sorted =
        List.sort (fun (a, _) (b, _) -> String.compare a b) fields
      in
      let cs = List.map (fun (n, x) -> (n, compile cat [ var ] x)) sorted in
      let buf = [| Value.VNull |] in
      Some
        (fun v ->
          buf.(0) <- v;
          Value.of_sorted_fields (List.map (fun (n, c) -> (n, c buf)) cs))
    end
  | _ -> None
