(* Translation of (rewritten) ADL expressions into physical plans.

   The planner maps each top-level set-producing operator to a plan node and
   chooses join algorithms: it scans the join predicate's conjuncts for
   equi-key pairs f(x) = g(y) (f referencing only the left variable, g only
   the right) and picks a hash implementation when at least one pair exists,
   falling back to nested loops otherwise.  Scalar expressions and iterator
   parameter expressions stay as ADL, which the executor compiles once per
   operator.

   [plan ~force] overrides the choice, which the benches use to compare
   algorithms on identical logical plans. *)

open Njq_adl
open Expr

(* Split a join predicate into equi-key pairs and a residual.  A conjunct
   qualifies as a key pair when it is an equality whose sides partition over
   the two join variables and reference nothing else (outer variables would
   make the key non-constant across the build). *)
let extract_keys xvar yvar pred =
  let cs = conjuncts pred in
  let only v e =
    let fv = Analysis.free_vars e in
    Analysis.S.subset fv (Analysis.S.singleton v)
    && not (Analysis.S.is_empty fv)
  in
  let classify = function
    | Cmp (Eq, a, b) when only xvar a && only yvar b -> `Key (a, b)
    | Cmp (Eq, a, b) when only yvar a && only xvar b -> `Key (b, a)
    | c -> `Residual c
  in
  let keys, residuals =
    List.fold_left
      (fun (ks, rs) c ->
        match classify c with
        | `Key kv -> (kv :: ks, rs)
        | `Residual r -> (ks, r :: rs))
      ([], []) cs
  in
  (List.rev keys, conjoin (List.rev residuals))

(* Recognize membership-style join predicates over a set-valued attribute of
   the left operand:

     'exists' z 'in' xset(x) . ekey(z) = ykey(y)        (quantifier form)
     ykey(y) 'in' xset(x)                               (membership form)

   Returns the pieces needed for a [Plan.MemberJoin]. *)
let member_shape xvar yvar pred =
  let only v e =
    let fv = Analysis.free_vars e in
    Analysis.S.subset fv (Analysis.S.singleton v)
  in
  match pred with
  | Quant (Exists, z, xset, Cmp (Eq, a, b)) when only xvar xset ->
    if only z a && only yvar b then Some (xset, z, a, b)
    else if only z b && only yvar a then Some (xset, z, b, a)
    else None
  | SetCmp (Mem, g, xset) when only yvar g && only xvar xset ->
    let z = Expr.fresh_var "elem" in
    Some (xset, z, Var z, g)
  | _ -> None

(* Hash when equi keys exist, nested loops otherwise; [force] names the
   algorithm of every keyed join.  A join without keys cannot hash or
   merge, so it runs nested loops whatever is forced. *)
let choose force keys =
  match keys, force with
  | [], _ -> Plan.Nested_loop
  | _, Some a -> a
  | _, None -> Plan.Hash

(* [choose] for a join of [kind], falling back to hash where [Exec] has
   no path for the forced algorithm: sort-merge emits only inner joins
   (and nestjoin groups), a partitioned join no outer join. *)
let join_algo force kind keys =
  match choose force keys, kind with
  | Plan.Sort_merge, (Semi | Anti | LeftOuter _) | Plan.Partitioned _, LeftOuter _ ->
    Plan.Hash
  | algo, _ -> algo

(* Is this expression a set-producing operator we can plan, or a scalar /
   parameter expression that must stay in ADL? *)
let rec plan_with force (e : Expr.t) : Plan.t =
  let plan = plan_with force in
  match e with
  | Table name -> Plan.Scan name
  | Select { var; pred; src } ->
    Plan.Filter { var; pred; input = plan src; morsel = false }
  | Map { var; body; src } ->
    Plan.MapOp { var; body; input = plan src; morsel = false }
  | Project (attrs, src) -> Plan.ProjectOp (attrs, plan src)
  | Flatten src -> Plan.FlattenOp (plan src)
  | Union (a, b) -> Plan.UnionOp (plan a, plan b)
  | Inter (a, b) -> Plan.InterOp (plan a, plan b)
  | Diff (a, b) -> Plan.DiffOp (plan a, plan b)
  | Product (a, b) -> Plan.ProductOp (plan a, plan b)
  | Join { kind; xvar; yvar; pred; left; right } ->
    let keys, residual = extract_keys xvar yvar pred in
    let member =
      (* Membership joins apply when the whole predicate is the membership
         test and an algorithm choice is not forced to nested loop. *)
      if keys = [] && force <> Some Plan.Nested_loop then
        member_shape xvar yvar pred
      else None
    in
    (match member, kind with
     | Some (xset, elem_var, elem_key, ykey), (Semi | Anti | Inner) ->
       let mkind =
         match kind with
         | Semi -> Plan.MSemi
         | Anti -> Plan.MAnti
         | _ -> Plan.MInner
       in
       Plan.MemberJoin
         { kind = mkind; xvar; yvar; xset; elem_var; elem_key; ykey;
           left = plan left; right = Plan.Build (plan right) }
     | _ ->
       let lp = plan left and rp = plan right in
       Plan.JoinOp
         { algo = join_algo force kind keys; kind; xvar; yvar; keys; residual;
           left = lp; right = rp })
  | Nestjoin { xvar; yvar; pred; body; attr; left; right } ->
    let keys, residual = extract_keys xvar yvar pred in
    let member =
      if keys = [] && force <> Some Plan.Nested_loop then
        member_shape xvar yvar pred
      else None
    in
    (match member with
     | Some (xset, elem_var, elem_key, ykey) ->
       Plan.MemberJoin
         { kind = Plan.MNest { body; attr }; xvar; yvar; xset; elem_var;
           elem_key; ykey; left = plan left; right = Plan.Build (plan right) }
     | None ->
       let lp = plan left and rp = plan right in
       Plan.NestjoinOp
         { algo = choose force keys; xvar; yvar; keys; residual; body; attr;
           left = lp; right = rp })
  | Rename (pairs, src) -> Plan.RenameOp (pairs, plan src)
  | Unnest (a, src) -> Plan.UnnestOp (a, plan src)
  | Nest { attrs; into; src } -> Plan.NestOp { attrs; into; input = plan src }
  | Divide (a, b) -> Plan.DivideOp (plan a, plan b)
  | Const _ | Var _ | Param _ | Tuple _ | Field _ | TupleProj _ | Except _
  | Concat _ | SetLit _ | Arith _ | Cmp _ | SetCmp _ | And _ | Or _ | Not _
  | If _ | Quant _ | Agg _ | Deref _ ->
    (* Scalar or parameter-level expression: evaluate as-is. *)
    Plan.EvalOp e

(* ------------------------------------------------------------------ *)
(* Access-path post-pass: sargable predicates onto catalog indexes      *)
(* ------------------------------------------------------------------ *)

(* A lookup expression must be closed: free variables would make the key
   depend on an outer binding the index cannot see.  Parameters are
   constants here — [Plan.map_exprs] binds them into the lookup before the
   plan runs — so a prepared template gets its literal twin's index
   paths. *)
let closed = Analysis.is_closed_up_to_params

(* [x.attr = e] (either orientation) with [e] closed: the sargable shape a
   point lookup consumes. *)
let eq_const var attr = function
  | Cmp (Eq, Field (Var v, a), e)
    when String.equal v var && String.equal a attr && closed e ->
    Some e
  | Cmp (Eq, e, Field (Var v, a))
    when String.equal v var && String.equal a attr && closed e ->
    Some e
  | _ -> None

(* An inequality between [x.attr] and a closed expression, normalized to a
   bound on the attribute: [`Lo (e, inclusive)] or [`Hi (e, inclusive)]. *)
let range_bound var attr c =
  let bound op e =
    match op with
    | Lt -> Some (`Hi (e, false))
    | Le -> Some (`Hi (e, true))
    | Gt -> Some (`Lo (e, false))
    | Ge -> Some (`Lo (e, true))
    | Eq | Neq -> None
  in
  match c with
  | Cmp (op, Field (Var v, a), e)
    when String.equal v var && String.equal a attr && closed e ->
    bound op e
  | Cmp (op, e, Field (Var v, a))
    when String.equal v var && String.equal a attr && closed e ->
    (* e op x.a reads mirrored: e < x.a is a lower bound on x.a. *)
    (match op with
     | Lt -> bound Gt e
     | Le -> bound Ge e
     | Gt -> bound Lt e
     | Ge -> bound Le e
     | Eq | Neq -> None)
  | _ -> None

(* Index attributes are base-table names; when the replaced subplan
   renames the scan, the predicate (or join keys) see the renamed
   attribute instead. *)
let renamed rename attr =
  match List.assoc_opt attr rename with Some a -> a | None -> attr

(* Point-lookup candidate: every indexed attribute must be pinned by an
   equality conjunct; one conjunct is consumed per attribute, everything
   else stays in the residual. *)
let point_scan ~rename var table cs idx =
  let rec cover keys remaining = function
    | [] -> Some (List.rev keys, remaining)
    | attr :: rest ->
      let rec pick seen = function
        | [] -> None
        | c :: tl ->
          (match eq_const var (renamed rename attr) c with
           | Some e -> Some (e, List.rev_append seen tl)
           | None -> pick (c :: seen) tl)
      in
      (match pick [] remaining with
       | None -> None
       | Some (e, remaining) -> cover (e :: keys) remaining rest)
  in
  match cover [] cs (Catalog.index_attrs idx) with
  | None -> None
  | Some (keys, residual_cs) ->
    Some
      (Plan.IndexScan
         { table; index = Catalog.index_name idx; var;
           lookup = Plan.LPoint keys; residual = conjoin residual_cs;
           rename })

(* Range candidate on the leading attribute of a sorted index: the first
   lower and first upper bound found become the lookup, further bounds and
   unrelated conjuncts stay in the residual. *)
let range_scan ~rename var table cs idx =
  match Catalog.index_kind idx with
  | Catalog.Hash_index -> None
  | Catalog.Sorted_index ->
    let attr = renamed rename (List.hd (Catalog.index_attrs idx)) in
    let lo, hi, residual_cs =
      List.fold_left
        (fun (lo, hi, rs) c ->
          match range_bound var attr c with
          | Some (`Lo b) when Option.is_none lo -> (Some b, hi, rs)
          | Some (`Hi b) when Option.is_none hi -> (lo, Some b, rs)
          | _ -> (lo, hi, c :: rs))
        (None, None, []) cs
    in
    if Option.is_none lo && Option.is_none hi then None
    else
      Some
        (Plan.IndexScan
           { table; index = Catalog.index_name idx; var;
             lookup = Plan.LRange { lo; hi };
             residual = conjoin (List.rev residual_cs); rename })

(* Index-nested-loop candidate: every indexed attribute of the inner table
   must be the y side of some equi-key pair (syntactically [y.attr]); the
   matched pairs' x sides become the probe keys, leftover pairs fold back
   into the residual as equality conjuncts. *)
let index_join ~rename kind xvar yvar table keys residual left idx =
  let rec cover acc remaining = function
    | [] -> Some (List.rev acc, remaining)
    | attr :: rest ->
      let attr = renamed rename attr in
      let rec pick seen = function
        | [] -> None
        | ((kx, ky) as pair) :: tl ->
          (match ky with
           | Field (Var v, a) when String.equal v yvar && String.equal a attr ->
             Some (kx, List.rev_append seen tl)
           | _ -> pick (pair :: seen) tl)
      in
      (match pick [] remaining with
       | None -> None
       | Some (kx, remaining) -> cover (kx :: acc) remaining rest)
  in
  match cover [] keys (Catalog.index_attrs idx) with
  | None -> None
  | Some (kxs, leftover) ->
    let extra = List.map (fun (kx, ky) -> Cmp (Eq, kx, ky)) leftover in
    Some
      (Plan.IndexJoin
         { kind; xvar; yvar; table; index = Catalog.index_name idx;
           keys = kxs; residual = conjoin (extra @ conjuncts residual);
           rename; left })

(* Rewrite full scans under sargable predicates into index access paths,
   bottom-up, keeping a candidate only when the cost model prices it
   strictly below the scan-based original — with statistics, that is what
   makes index paths win only when selective. *)
let access_paths ~stats cat p =
  if not (Catalog.has_indexes cat) then p
  else begin
    let cost node = Cost.cost ~stats cat node in
    let best original candidates =
      List.fold_left
        (fun best cand -> if cost cand < cost best then cand else best)
        original candidates
    in
    (* A bare scan, or a scan under an attribute rename — the only two
       shapes the planner emits for base-extent access. *)
    let scan_shape = function
      | Plan.Scan table -> Some (table, [])
      | Plan.RenameOp (pairs, Plan.Scan table) -> Some (table, pairs)
      | _ -> None
    in
    let rec go p =
      let p = Plan.with_children p (List.map go (Plan.children p)) in
      match p with
      | Plan.Filter { var; pred; input; _ } when scan_shape input <> None ->
        let table, rename = Option.get (scan_shape input) in
        let cs = conjuncts pred in
        let candidates =
          List.concat_map
            (fun idx ->
              List.filter_map Fun.id
                [ point_scan ~rename var table cs idx;
                  range_scan ~rename var table cs idx ])
            (Catalog.indexes_on cat table)
        in
        best p candidates
      | Plan.JoinOp
          { algo = Plan.Hash | Plan.Nested_loop;
            kind = (Expr.Inner | Expr.Semi | Expr.Anti) as kind;
            xvar; yvar;
            keys = _ :: _ as keys;
            residual; left; right }
        when scan_shape right <> None ->
        let table, rename = Option.get (scan_shape right) in
        let candidates =
          List.filter_map
            (index_join ~rename kind xvar yvar table keys residual left)
            (Catalog.indexes_on cat table)
        in
        best p candidates
      | p -> p
    in
    go p
  end

(* Pointer-based member joins (Section 6.2, assembly against PNHL): a
   member join whose right operand is a whole extent keyed on "oid", joined
   on [y.oid] with the element itself as the probe key, would build a hash
   table the catalog already holds — the extent's oid index.  Rewrite it to
   probe that index instead; the scan disappears from the plan.  A filtered
   or renamed right operand keeps its hash build. *)
let pointer_joins cat p =
  let rec go p =
    let p = Plan.with_children p (List.map go (Plan.children p)) in
    match p with
    | Plan.MemberJoin
        ({ yvar; elem_var; elem_key = Var e;
           ykey = Field (Var y, "oid");
           right = Plan.Build (Plan.Scan table); _ } as j)
      when String.equal e elem_var && String.equal y yvar
           && Catalog.mem cat table && Catalog.oid_key cat table ->
      Plan.MemberJoin { j with right = Plan.Oid_index table }
    | p -> p
  in
  go p

(* ------------------------------------------------------------------ *)
(* Execution policies                                                  *)
(* ------------------------------------------------------------------ *)

(* Minimum estimated input rows before a filter or map is worth running as
   morsels on the domain pool: below it, task hand-off costs more than it
   saves. *)
let par_threshold = 256.0

(* Set each operator's execution policy, bottom-up, from the engine
   budget ({!Memory.budget}) and the pool size.  Two rules:
   - the budget: an inner, semi or anti hash join whose build side is
     estimated past it is partitioned by the budget alone, so its
     executor spills.  Without a catalog there are no estimates, so every
     such hash join is partitioned — the conservative reading of a
     binding budget.  Nestjoins stay resident;
   - morsels: with a catalog and a pool of at least 2 domains, a filter
     or a map with at least [par_threshold] estimated input rows runs its
     batches as pool tasks.
   A resident join is never partitioned for the pool alone: [Cost] prices
   a partitioned join above the resident one, and so did EQ4 at 2 domains
   (EXPERIMENTS.md P12).  A 1-domain run keeps every sequential policy. *)
let set_policies cat p =
  let budget = !Memory.budget in
  let parallel = Option.is_some cat && Pool.domains () >= 2 in
  let est =
    match cat with
    | Some c when budget < max_int || parallel ->
      Cost.rows_out ~stats:(Stats.cached c) c
    | _ -> fun _ -> infinity
  in
  let policy (p : Plan.t) =
    match p with
    | Plan.JoinOp
        ({ algo = Plan.Hash; kind = Expr.Inner | Expr.Semi | Expr.Anti;
           keys = _ :: _; right; _ } as j)
      when budget < max_int && est right > float_of_int budget ->
      let algo = Plan.Partitioned { partitions = 1; mem_budget = budget } in
      Plan.JoinOp { j with algo }
    | Plan.Filter ({ input; _ } as f) when parallel && est input >= par_threshold ->
      Plan.Filter { f with morsel = true }
    | Plan.MapOp ({ input; _ } as m) when parallel && est input >= par_threshold ->
      Plan.MapOp { m with morsel = true }
    | p -> p
  in
  let rec go p = policy (Plan.with_children p (List.map go (Plan.children p))) in
  if budget = max_int && not parallel then p else go p

let plan ?force ?cat e =
  let algo_label = if Option.is_none force then "auto" else "force" in
  Njq_obs.Span.with_span ~attrs:[ ("algo", Njq_obs.Span.AStr algo_label) ] "plan"
  @@ fun () ->
  let p = plan_with force e in
  let p =
    (* The catalog passes, skipped under [force], whose callers want the
       rewriter's exact plan with the named algorithm everywhere.  Join
       order comes first: the enumerator reasons over Scan/Filter shapes.
       Then sargable predicates onto declared indexes, and member joins
       onto whole oid-keyed extents probe the oid index, an access path
       every extent has. *)
    match cat, force with
    | Some c, None ->
      let stats = Stats.cached c in
      pointer_joins c (access_paths ~stats c (Joinorder.optimize ~stats c p))
    | _ -> p
  in
  set_policies cat p

(* The one derivation of a query's plan: rewrite under [options] (skipped
   with [~optimize:false]), hoist closed subqueries to constants, and plan
   against the catalog. *)
let derive ?(optimize = true) ?options cat e =
  Expr.restart_fresh e;
  let report =
    if optimize then Njq_core.Strategy.rewrite ?options cat e
    else { Njq_core.Strategy.input = e; output = e; phases = [] }
  in
  (report, plan ~cat (Consthoist.hoist cat report.Njq_core.Strategy.output))

(* End-to-end convenience: hoist uncorrelated subqueries, plan, execute. *)
let run cat e = Exec.run cat (plan ~cat (Consthoist.hoist cat e))
