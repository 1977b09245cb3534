(* Cost-based join-order enumeration.

   The rewriter (Core.Strategy) fixes the join order by construction: it
   unnests in source order, so the plan handed to the planner joins
   relations in whatever order the query mentioned them.  This pass
   re-derives the order from costs.  It decomposes each maximal join
   region of the plan into

     - leaves: the joined relations (scans, renamed scans, filtered or
       projected scans — anything with a known attribute set),
     - conjuncts: every selection predicate and join condition, rewritten
       over one canonical row variable so a conjunct is just an attribute
       requirement plus an expression, and
     - unary edges: semijoin/antijoin/nestjoin right-hand sides, which
       filter or extend the accumulating join result without contributing
       attributes of their own (beyond a nestjoin's grouped attribute).

   and then rebuilds the cheapest tree bottom-up: exhaustive DP over
   relation subsets up to [dp_max] relations, greedy nearest-neighbor
   growth beyond.  Conjuncts and unary edges are applied at the earliest
   node where the attributes they need are available — for a nestjoin
   this availability requirement is exactly the paper-twist "the grouping
   side must survive": a subset is grouping-complete for an edge when it
   covers the edge's key and body attributes, and the attribute the edge
   produces feeds the availability of whatever reads the group later.

   Correctness of reordering rests on the value model: [Value.tuple]
   sorts fields by name and sets are canonically sorted and deduplicated,
   so any two orders of the same inner-join/semijoin/antijoin/nestjoin
   region produce structurally identical results (differential-tested in
   test_joinorder.ml).  The pass adopts an enumerated order only when its
   estimated cost is *strictly* below the rewriter order's, so estimation
   ties keep existing plans byte-stable.  Selections stay where the
   enumeration applies them, at the earliest node that has their
   attributes: under this cost model pushdown is optimal (a filter costs
   its input's cardinality). *)

open Njq_adl
module S = Analysis.S

let dp_max = 10

type region_report = {
  relations : string list;
  considered : int;
  pruned : int;
  chosen_cost : float;
  rewriter_cost : float;
  reordered : bool;
  chosen_fingerprint : string;
  rewriter_fingerprint : string;
}

let last_report : region_report list ref = ref []

exception Bail

(* ------------------------------------------------------------------ *)
(* Canonical-variable normalization.                                    *)
(* ------------------------------------------------------------------ *)

(* All region predicates are rewritten over this one row variable.  The
   '%' prefix cannot appear in source identifiers or planner-generated
   fresh names, so plain structural substitution is capture-safe. *)
let canon = "%row"

(* Attributes an expression reads off the canonical row variable, or
   [None] when it uses the row as a whole (bare [Var canon] not under a
   field projection), which we cannot split across join sides. *)
let canon_uses (e : Expr.t) : S.t option =
  let fields =
    Analysis.find_all
      (function
        | Expr.Field (Expr.Var v, _) -> String.equal v canon
        | _ -> false)
      e
  in
  let bare = Analysis.count_subexpr ~needle:(Expr.Var canon) e in
  if bare > List.length fields then None
  else
    Some
      (List.fold_left
         (fun acc -> function Expr.Field (_, a) -> S.add a acc | _ -> acc)
         S.empty fields)

let req_of e = match canon_uses e with Some s -> s | None -> raise Bail

(* Rewrite binder variables to the canonical variable; bails on free
   variables beyond the binders (correlated predicates — the region
   cannot re-place those). *)
let normalize_binders vars (e : Expr.t) : Expr.t =
  if not (S.subset (Analysis.free_vars e) (S.of_list vars)) then raise Bail;
  Analysis.subst (List.map (fun v -> (v, Expr.Var canon)) vars) e

(* Rebind the canonical variable to a concrete row variable. *)
let rebind v e = Analysis.subst1 canon (Expr.Var v) e

(* ------------------------------------------------------------------ *)
(* Region representation.                                               *)
(* ------------------------------------------------------------------ *)

type conj = {
  c_expr : Expr.t;  (* over [canon] *)
  c_req : S.t;  (* attributes it reads *)
  c_eq : (Expr.t * Expr.t * S.t * S.t) option;
      (* equality sides + their attribute sets, for key extraction *)
}

type uop =
  | Usemi of {
      kind : Expr.join_kind;
      algo : Plan.join_algo;
      yvar : string;
      keys : (Expr.t * Expr.t) list;  (* (over canon, over yvar) *)
      residual : Expr.t;  (* over canon and yvar *)
      right : Plan.t;
    }
  | Unest of {
      algo : Plan.join_algo;
      yvar : string;
      keys : (Expr.t * Expr.t) list;
      residual : Expr.t;
      body : Expr.t;  (* over canon and yvar *)
      attr : string;
      right : Plan.t;
    }

type item = { u : uop; u_req : S.t; u_prod : string option }

type region = {
  leaves : (Plan.t * S.t) array;  (* rewriter order, left to right *)
  conjs : conj array;
  items : item array;
  ref_plan : Plan.t;  (* the rewriter-order tree (sub-plans optimized) *)
}

let mk_conj (e : Expr.t) : conj =
  let req = req_of e in
  let c_eq =
    match e with
    | Expr.Cmp (Expr.Eq, a, b) -> (
      match canon_uses a, canon_uses b with
      | Some ra, Some rb -> Some (a, b, ra, rb)
      | _ -> None)
    | _ -> None
  in
  { c_expr = e; c_req = req; c_eq }

(* Attribute set of a region leaf, or [None] when unknown (which makes
   the enclosing region unenumerable — requirements could not be placed). *)
let rec leaf_attrs cat (p : Plan.t) : S.t option =
  match p with
  | Plan.Scan t ->
    Option.bind (Catalog.find_opt cat t) (fun tbl ->
        match tbl.Catalog.row_type with
        | Vtype.TTuple fields -> Some (S.of_list (List.map fst fields))
        | _ -> None)
  | Plan.RenameOp (pairs, input) ->
    Option.map
      (S.map (fun a ->
           match List.assoc_opt a pairs with Some b -> b | None -> a))
      (leaf_attrs cat input)
  | Plan.IndexScan { table; rename; _ } ->
    Option.map
      (S.map (fun a ->
           match List.assoc_opt a rename with Some b -> b | None -> a))
      (leaf_attrs cat (Plan.Scan table))
  | Plan.Filter { input; _ } -> leaf_attrs cat input
  | Plan.ProjectOp (attrs, _) -> Some (S.of_list attrs)
  | Plan.MapOp { body = Expr.Tuple fields; _ } ->
    Some (S.of_list (List.map fst fields))
  | _ -> None

let rec leaf_label = function
  | Plan.Scan t -> t
  | Plan.IndexScan { table; _ } -> table
  | Plan.RenameOp (_, p)
  | Plan.Filter { input = p; _ }
  | Plan.ProjectOp (_, p)
  | Plan.MapOp { input = p; _ } ->
    leaf_label p
  | p -> Plan.node_label p

(* ------------------------------------------------------------------ *)
(* Availability and deterministic application.                          *)
(* ------------------------------------------------------------------ *)

let popcount m =
  let rec go acc m = if m = 0 then acc else go (acc + (m land 1)) (m lsr 1) in
  go 0 m

(* Attributes available in a relation subset: base attributes of its
   leaves plus attributes produced by nestjoin edges whose requirements
   the subset satisfies, to a fixpoint.  "Grouping-complete" subsets are
   exactly those through which an edge's produced attribute appears. *)
let mk_avail (r : region) =
  let memo = Hashtbl.create 64 in
  fun mask ->
    match Hashtbl.find_opt memo mask with
    | Some a -> a
    | None ->
      let base = ref S.empty in
      Array.iteri
        (fun i (_, a) -> if mask land (1 lsl i) <> 0 then base := S.union a !base)
        r.leaves;
      let rec fix cur =
        let next =
          Array.fold_left
            (fun acc it ->
              match it.u_prod with
              | Some a when (not (S.mem a acc)) && S.subset it.u_req acc ->
                S.add a acc
              | _ -> acc)
            cur r.items
        in
        if S.equal next cur then cur else fix next
      in
      let a = fix !base in
      Hashtbl.add memo mask a;
      a

(* Deterministic row-variable names per subset; '%' keeps them out of the
   source/fresh-name namespace, and deriving them from the subset mask
   (never from a global counter) keeps plan fingerprints reproducible. *)
let vname mask = Printf.sprintf "%%s%x" mask

let apply_item mask it plan =
  let v = vname mask in
  match it.u with
  | Usemi { kind; algo; yvar; keys; residual; right } ->
    Plan.JoinOp
      {
        algo;
        kind;
        xvar = v;
        yvar;
        keys = List.map (fun (kx, ky) -> (rebind v kx, ky)) keys;
        residual = rebind v residual;
        left = plan;
        right;
      }
  | Unest { algo; yvar; keys; residual; body; attr; right } ->
    Plan.NestjoinOp
      {
        algo;
        xvar = v;
        yvar;
        keys = List.map (fun (kx, ky) -> (rebind v kx, ky)) keys;
        residual = rebind v residual;
        body = rebind v body;
        attr;
        left = plan;
        right;
      }

(* Apply, on top of [plan] (the completed subtree for [mask], rows
   carrying [cur] attributes), every conjunct and unary edge applicable
   at [mask] but not already applied below.  Application order is
   deterministic — ready conjuncts first (extraction order, one Filter),
   then the first ready unary edge, repeat — so the plan built for a
   subset is a function of the subset and its partition alone, which is
   what keeps the DP memo well-defined. *)
let finish (r : region) ~avail ~mask ~cur ~below_c ~below_i plan =
  let av = avail mask in
  let todo_c = ref [] and todo_i = ref [] in
  Array.iteri
    (fun i c ->
      if (not (below_c i)) && S.subset c.c_req av then todo_c := i :: !todo_c)
    r.conjs;
  Array.iteri
    (fun i it ->
      if (not (below_i i)) && S.subset it.u_req av then todo_i := i :: !todo_i)
    r.items;
  let rec loop plan cur todo_c todo_i =
    let ready_c, later_c =
      List.partition (fun i -> S.subset r.conjs.(i).c_req cur) todo_c
    in
    let plan =
      match ready_c with
      | [] -> plan
      | _ ->
        let v = vname mask in
        Plan.Filter
          {
            var = v;
            pred =
              Expr.conjoin
                (List.map (fun i -> rebind v r.conjs.(i).c_expr) ready_c);
            input = plan;
            morsel = false;
          }
    in
    let rec first_ready acc = function
      | [] -> None
      | i :: rest when S.subset r.items.(i).u_req cur ->
        Some (i, List.rev_append acc rest)
      | i :: rest -> first_ready (i :: acc) rest
    in
    match first_ready [] todo_i with
    | None -> if later_c = [] && todo_i = [] then plan else raise Bail
    | Some (i, rest) ->
      let it = r.items.(i) in
      let cur = match it.u_prod with Some a -> S.add a cur | None -> cur in
      loop (apply_item mask it plan) cur later_c rest
  in
  loop plan cur (List.rev !todo_c) (List.rev !todo_i)

let leaf_build (r : region) ~avail i =
  let mask = 1 lsl i in
  let none _ = false in
  finish r ~avail ~mask ~cur:(snd r.leaves.(i)) ~below_c:none ~below_i:none
    (fst r.leaves.(i))

(* Split a cross conjunct's field accesses between the two join sides. *)
let split_sides ~a1 ~xv ~yv (c : conj) : Expr.t =
  S.fold
    (fun a acc ->
      let side = if S.mem a a1 then xv else yv in
      Analysis.replace_subexpr
        ~old_e:(Expr.Field (Expr.Var canon, a))
        ~by:(Expr.Field (Expr.Var side, a))
        acc)
    c.c_req c.c_expr

(* All candidate join plans combining the completed subtrees [p1] (for
   subset [m1]) and [p2] (for [m2]): one per applicable algorithm, with
   crossing equality conjuncts as hash/merge keys, other crossing
   conjuncts as the residual, and newly applicable conjuncts and unary
   edges finished on top.  Empty when the subsets share no conjunct (no
   cross products are enumerated). *)
let candidates (r : region) ~avail ~m1 ~m2 p1 p2 : Plan.t list =
  let m = m1 lor m2 in
  let a1 = avail m1 and a2 = avail m2 in
  let union12 = S.union a1 a2 in
  let xv = Printf.sprintf "%%x%x" m1 and yv = Printf.sprintf "%%y%x" m2 in
  let below_c i =
    let q = r.conjs.(i).c_req in
    S.subset q a1 || S.subset q a2
  in
  let below_i i =
    let q = r.items.(i).u_req in
    S.subset q a1 || S.subset q a2
  in
  let keys = ref [] and residuals = ref [] in
  let consumed = ref [] in
  Array.iteri
    (fun i c ->
      if (not (below_c i)) && S.subset c.c_req union12 then (
        consumed := i :: !consumed;
        match c.c_eq with
        | Some (a, b, ra, rb) when S.subset ra a1 && S.subset rb a2 ->
          keys := (rebind xv a, rebind yv b) :: !keys
        | Some (a, b, ra, rb) when S.subset rb a1 && S.subset ra a2 ->
          keys := (rebind xv b, rebind yv a) :: !keys
        | _ -> residuals := split_sides ~a1 ~xv ~yv c :: !residuals))
    r.conjs;
  let below_c i = below_c i || List.mem i !consumed in
  let keys = List.rev !keys and residuals = List.rev !residuals in
  if keys = [] && residuals = [] then []
  else
    let residual = Expr.conjoin residuals in
    let algos =
      if keys = [] then [ Plan.Nested_loop ]
      else [ Plan.Hash; Plan.Sort_merge; Plan.Nested_loop ]
    in
    List.filter_map
      (fun algo ->
        let j =
          Plan.JoinOp
            {
              algo;
              kind = Expr.Inner;
              xvar = xv;
              yvar = yv;
              keys;
              residual;
              left = p1;
              right = p2;
            }
        in
        match finish r ~avail ~mask:m ~cur:union12 ~below_c ~below_i j with
        | p -> Some p
        | exception Bail -> None)
      algos

type ctx = { cat : Catalog.t; stats : Stats.t }

let plan_cost (ctx : ctx) p = Cost.cost ~stats:ctx.stats ctx.cat p

(* ------------------------------------------------------------------ *)
(* Enumeration: DP over subsets, greedy beyond [dp_max].                *)
(* ------------------------------------------------------------------ *)

(* Returns the cheapest complete region plan with (cost, considered,
   pruned) counters, or [None] when no connected order exists. *)
let enumerate (ctx : ctx) (r : region) :
    (Plan.t * float * int * int) option =
  let n = Array.length r.leaves in
  let avail = mk_avail r in
  let considered = ref 0 and pruned = ref 0 in
  let plan_cost = plan_cost ctx in
  let pick acc cand =
    incr considered;
    let c = plan_cost cand in
    match !acc with
    | Some (_, bc) when bc <= c -> incr pruned
    | Some _ ->
      incr pruned;
      acc := Some (cand, c)
    | None -> acc := Some (cand, c)
  in
  let leafp =
    Array.init n (fun i ->
        match leaf_build r ~avail i with
        | p -> Some (p, plan_cost p)
        | exception Bail -> None)
  in
  if Array.exists Option.is_none leafp then None
  else if n <= dp_max then begin
    (* Selinger-style DP: best plan per subset, every 2-partition of every
       subset considered (both orders, so the hash build side is free). *)
    let full = (1 lsl n) - 1 in
    let best = Array.make (full + 1) None in
    Array.iteri (fun i p -> best.(1 lsl i) <- p) leafp;
    for m = 1 to full do
      if popcount m >= 2 then begin
        let acc = ref None in
        let sub = ref ((m - 1) land m) in
        while !sub > 0 do
          let m1 = !sub and m2 = m lxor !sub in
          (match best.(m1), best.(m2) with
          | Some (p1, _), Some (p2, _) ->
            List.iter (pick acc) (candidates r ~avail ~m1 ~m2 p1 p2)
          | _ -> ());
          sub := (!sub - 1) land m
        done;
        best.(m) <- !acc
      end
    done;
    Option.map (fun (p, c) -> (p, c, !considered, !pruned)) best.(full)
  end
  else begin
    (* Greedy nearest-neighbor: cheapest joinable pair, then repeatedly
       the cheapest single-relation extension (either side). *)
    let leafp = Array.map Option.get leafp in
    let start = ref None in
    let pick_at acc mask cand =
      incr considered;
      let c = plan_cost cand in
      match !acc with
      | Some (_, _, bc) when bc <= c -> incr pruned
      | Some _ ->
        incr pruned;
        acc := Some (mask, cand, c)
      | None -> acc := Some (mask, cand, c)
    in
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        if i <> j then
          List.iter
            (pick_at start ((1 lsl i) lor (1 lsl j)))
            (candidates r ~avail ~m1:(1 lsl i) ~m2:(1 lsl j)
               (fst leafp.(i)) (fst leafp.(j)))
      done
    done;
    match !start with
    | None -> None
    | Some (mask0, p0, c0) ->
      let rec grow mask p c =
        if mask = (1 lsl n) - 1 then Some (p, c, !considered, !pruned)
        else begin
          let step = ref None in
          for k = 0 to n - 1 do
            let mk = 1 lsl k in
            if mask land mk = 0 then
              List.iter
                (pick_at step (mask lor mk))
                (candidates r ~avail ~m1:mask ~m2:mk p (fst leafp.(k))
                @ candidates r ~avail ~m1:mk ~m2:mask (fst leafp.(k)) p)
          done;
          match !step with
          | None -> None
          | Some (m', p', c') -> grow m' p' c'
        end
      in
      grow mask0 p0 c0
  end

(* ------------------------------------------------------------------ *)
(* Region extraction and the top-level pass.                            *)
(* ------------------------------------------------------------------ *)

(* Is this node the root of (part of) an enumerable join region? *)
let rec region_root = function
  | Plan.JoinOp { kind = Expr.Inner | Expr.Semi | Expr.Anti; keys = _ :: _; _ }
    ->
    true
  | Plan.NestjoinOp { keys = _ :: _; _ } -> true
  | Plan.Filter { input; _ } -> region_root input
  | _ -> false

(* Decompose the region rooted at [p0].  [sub] post-processes sub-plans
   that leave the region (leaves and semijoin/antijoin/nestjoin right
   operands) — the recursive optimizer for the real pass, the identity
   for the test hook.  Raises [Bail] on anything the enumerator cannot
   re-place: correlated predicates, whole-row predicate uses, leaves with
   unknown attributes, keyless or outer joins are simply leaves. *)
let gather ~sub cat (p0 : Plan.t) : region =
  let leaves = ref [] and conjs = ref [] and items = ref [] in
  let push r x = r := x :: !r in
  let push_conjs vars pred =
    List.iter
      (fun c ->
        if not (Expr.is_true c) then push conjs (mk_conj (normalize_binders vars c)))
      (Expr.conjuncts pred)
  in
  let norm_keys xvar yvar keys =
    List.map
      (fun (kx, ky) ->
        if not (S.subset (Analysis.free_vars ky) (S.singleton yvar)) then
          raise Bail;
        (normalize_binders [ xvar ] kx, ky))
      keys
  in
  let rec go p =
    match p with
    | Plan.Filter ({ var; pred; input; _ } as f) ->
      let rp = go input in
      push_conjs [ var ] pred;
      Plan.Filter { f with input = rp }
    | Plan.JoinOp
        ({
           kind = Expr.Inner;
           xvar;
           yvar;
           keys = _ :: _ as keys;
           residual;
           left;
           right;
           _;
         } as j) ->
      let rl = go left in
      let rr = go right in
      List.iter
        (fun (kx, ky) ->
          push conjs
            (mk_conj
               (Expr.Cmp
                  ( Expr.Eq,
                    normalize_binders [ xvar ] kx,
                    normalize_binders [ yvar ] ky ))))
        keys;
      push_conjs [ xvar; yvar ] residual;
      Plan.JoinOp { j with left = rl; right = rr }
    | Plan.JoinOp
        {
          algo;
          kind = (Expr.Semi | Expr.Anti) as kind;
          xvar;
          yvar;
          keys = _ :: _ as keys;
          residual;
          left;
          right;
        } ->
      let rl = go left in
      let rr = sub right in
      let keys' = norm_keys xvar yvar keys in
      if not (S.subset (Analysis.free_vars residual) (S.of_list [ xvar; yvar ]))
      then raise Bail;
      let residual' = Analysis.subst1 xvar (Expr.Var canon) residual in
      let req =
        List.fold_left
          (fun acc (kx, _) -> S.union acc (req_of kx))
          (req_of residual') keys'
      in
      push items
        {
          u = Usemi { kind; algo; yvar; keys = keys'; residual = residual'; right = rr };
          u_req = req;
          u_prod = None;
        };
      Plan.JoinOp
        { algo; kind; xvar; yvar; keys; residual; left = rl; right = rr }
    | Plan.NestjoinOp
        { algo; xvar; yvar; keys = _ :: _ as keys; residual; body; attr; left; right }
      ->
      let rl = go left in
      let rr = sub right in
      let keys' = norm_keys xvar yvar keys in
      if not (S.subset (Analysis.free_vars residual) (S.of_list [ xvar; yvar ]))
      then raise Bail;
      if not (S.subset (Analysis.free_vars body) (S.of_list [ xvar; yvar ]))
      then raise Bail;
      let residual' = Analysis.subst1 xvar (Expr.Var canon) residual in
      let body' = Analysis.subst1 xvar (Expr.Var canon) body in
      let req =
        List.fold_left
          (fun acc (kx, _) -> S.union acc (req_of kx))
          (S.union (req_of residual') (req_of body'))
          keys'
      in
      push items
        {
          u =
            Unest
              {
                algo;
                yvar;
                keys = keys';
                residual = residual';
                body = body';
                attr;
                right = rr;
              };
          u_req = req;
          u_prod = Some attr;
        };
      Plan.NestjoinOp
        { algo; xvar; yvar; keys; residual; body; attr; left = rl; right = rr }
    | _ ->
      let lp = sub p in
      (match leaf_attrs cat lp with
      | Some attrs -> push leaves (lp, attrs)
      | None -> raise Bail);
      lp
  in
  let rp = go p0 in
  {
    leaves = Array.of_list (List.rev !leaves);
    conjs = Array.of_list (List.rev !conjs);
    items = Array.of_list (List.rev !items);
    ref_plan = rp;
  }

(* Semantic preconditions the enumerator needs: at least a 2-way join
   with one conjunct; attribute names disjoint across leaves (the paper's
   rename discipline — ρ on every reused extent — guarantees this in
   rewriter output); produced attributes fresh; every requirement
   satisfiable at the full subset; and each conjunct/edge anchored to at
   least one base attribute, which (with disjointness) pins it to exactly
   one position per tree. *)
let valid_region (r : region) : bool =
  let n = Array.length r.leaves in
  n >= 2
  && Array.length r.conjs > 0
  &&
  let base_union =
    Array.fold_left (fun acc (_, a) -> S.union acc a) S.empty r.leaves
  in
  let base_card =
    Array.fold_left (fun acc (_, a) -> acc + S.cardinal a) 0 r.leaves
  in
  S.cardinal base_union = base_card
  && Array.for_all
       (fun it ->
         match it.u_prod with
         | Some a -> not (S.mem a base_union)
         | None -> true)
       r.items
  && (let prods =
        Array.to_list r.items
        |> List.filter_map (fun it -> it.u_prod)
      in
      List.length prods = List.length (List.sort_uniq compare prods))
  &&
  let avail = mk_avail r in
  let full_av = avail ((1 lsl n) - 1) in
  Array.for_all
    (fun c -> (not (S.is_empty c.c_req)) && S.subset c.c_req full_av)
    r.conjs
  && Array.for_all
       (fun it ->
         S.subset it.u_req full_av
         && not (S.is_empty (S.inter it.u_req base_union)))
       r.items

let rec transform (ctx : ctx) (p : Plan.t) : Plan.t =
  if region_root p then
    match try_region ctx p with Some p' -> p' | None -> descend ctx p
  else descend ctx p

and descend ctx p =
  match Plan.children p with
  | [] -> p
  | kids -> Plan.with_children p (List.map (transform ctx) kids)

and try_region ctx p0 =
  match (try Some (gather ~sub:(transform ctx) ctx.cat p0) with Bail -> None) with
  | None -> None
  | Some r ->
    if not (valid_region r) then None
    else
      let rcost = plan_cost ctx r.ref_plan in
      let rfp = Plan.fingerprint r.ref_plan in
      let record ~chosen ~ccost ~considered ~pruned =
        let cfp = Plan.fingerprint chosen in
        last_report :=
          !last_report
          @ [
              {
                relations =
                  Array.to_list r.leaves |> List.map (fun (p, _) -> leaf_label p);
                considered;
                pruned;
                chosen_cost = ccost;
                rewriter_cost = rcost;
                reordered = not (String.equal cfp rfp);
                chosen_fingerprint = cfp;
                rewriter_fingerprint = rfp;
              };
            ]
      in
      (match (try enumerate ctx r with Bail -> None) with
      | None ->
        record ~chosen:r.ref_plan ~ccost:rcost ~considered:0 ~pruned:0;
        Some r.ref_plan
      | Some (cand, ccost, considered, pruned) ->
        (* Strictly-cheaper adoption: ties keep the rewriter's plan, so
           estimation noise never churns existing fingerprints. *)
        let chosen, ccost = if ccost < rcost then (cand, ccost) else (r.ref_plan, rcost) in
        record ~chosen ~ccost ~considered ~pruned;
        Some chosen)

let optimize ~stats (cat : Catalog.t) (p : Plan.t) : Plan.t =
  last_report := [];
  transform { cat; stats } p

(* ------------------------------------------------------------------ *)
(* Exhaustive order enumeration (differential-test hook).               *)
(* ------------------------------------------------------------------ *)

let orders ?(limit = 64) (cat : Catalog.t) (p : Plan.t) : Plan.t list =
  let rec find p =
    if region_root p then Some p else List.find_map find (Plan.children p)
  in
  match find p with
  | None -> []
  | Some root -> (
    match (try Some (gather ~sub:(fun q -> q) cat root) with Bail -> None) with
    | None -> []
    | Some r ->
      let n = Array.length r.leaves in
      if (not (valid_region r)) || n > 8 then []
      else begin
        let avail = mk_avail r in
        let memo = Hashtbl.create 64 in
        let rec plans mask =
          match Hashtbl.find_opt memo mask with
          | Some l -> l
          | None ->
            let res =
              if popcount mask = 1 then begin
                let i = ref 0 in
                while 1 lsl !i <> mask do
                  incr i
                done;
                match leaf_build r ~avail !i with
                | p -> [ p ]
                | exception Bail -> []
              end
              else begin
                let acc = ref [] in
                let sub = ref ((mask - 1) land mask) in
                while !sub > 0 do
                  let m1 = !sub and m2 = mask lxor !sub in
                  if List.length !acc < limit then
                    List.iter
                      (fun p1 ->
                        List.iter
                          (fun p2 ->
                            if List.length !acc < limit then
                              acc :=
                                candidates r ~avail ~m1 ~m2 p1 p2 @ !acc)
                          (plans m2))
                      (plans m1);
                  sub := (!sub - 1) land mask
                done;
                !acc
              end
            in
            Hashtbl.add memo mask res;
            res
        in
        let seen = Hashtbl.create 64 in
        List.filter
          (fun p ->
            let fp = Plan.fingerprint p in
            if Hashtbl.mem seen fp then false
            else begin
              Hashtbl.add seen fp ();
              true
            end)
          (plans ((1 lsl n) - 1))
      end)
