(* Cost-based join-order enumeration.

   The rewriter (Core.Strategy) fixes the join order by construction: it
   unnests in source order, so the plan handed to the planner joins
   relations in whatever order the query mentioned them.  This pass
   re-derives the order from costs.  It decomposes each maximal region of
   inner equi-joins and selections into

     - leaves: the joined relations (scans, renamed scans, filtered or
       projected scans — anything with a known attribute set), and
     - conjuncts: every selection predicate and join condition, rewritten
       over one canonical row variable so a conjunct is just an attribute
       requirement plus an expression,

   and then rebuilds the cheapest tree bottom-up by dynamic programming
   over relation subsets, applying each conjunct at the earliest node
   whose leaves have the attributes it reads.  Any other operator — a
   semijoin, antijoin or nestjoin included — ends a region: it stays where
   it is, and the pass looks for regions in its operands.  A region of
   more than [dp_max] relations keeps its written order.

   Correctness of reordering rests on the value model: [Value.tuple]
   sorts fields by name and sets are canonically sorted and deduplicated,
   so any two orders of the same inner-join region produce structurally
   identical results (differential-tested in test_joinorder.ml).  The pass
   adopts an enumerated order only when its estimated cost is *strictly*
   below the rewriter order's, so estimation ties keep existing plans
   byte-stable.  Selections stay where the enumeration applies them, at
   the earliest node that has their attributes: under this cost model
   pushdown is optimal (a filter costs its input's cardinality). *)

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

type region = {
  leaves : (Plan.t * S.t) array;  (* rewriter order, left to right *)
  conjs : conj array;
  ref_plan : Plan.t;  (* the rewriter-order tree (sub-plans optimized) *)
}

let mk_conj (e : Expr.t) : conj =
  let req = match canon_uses e with Some s -> s | None -> raise Bail in
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

(* Attributes of every relation subset, by mask: the union of its
   leaves' attributes. *)
let subset_attrs (r : region) : int -> S.t =
  let n = Array.length r.leaves in
  let a = Array.make (1 lsl n) S.empty in
  for m = 1 to (1 lsl n) - 1 do
    let i = ref 0 in
    while m land (1 lsl !i) = 0 do
      incr i
    done;
    a.(m) <- S.union (snd r.leaves.(!i)) a.(m lxor (1 lsl !i))
  done;
  Array.get a

(* Deterministic row-variable names per subset; '%' keeps them out of the
   source/fresh-name namespace, and deriving them from the subset mask
   (never from a global counter) keeps plan fingerprints reproducible. *)
let vname mask = Printf.sprintf "%%s%x" mask

(* Apply on top of [plan], the completed subtree for [mask], every
   conjunct its attributes [av] satisfy that was not applied below, as one
   Filter in extraction order — so the plan built for a subset is a
   function of the subset and its partition alone, which is what keeps
   the DP memo well-defined. *)
let finish (r : region) ~av ~mask ~below plan =
  let ready = ref [] in
  Array.iteri
    (fun i c -> if (not (below i)) && S.subset c.c_req av then ready := c :: !ready)
    r.conjs;
  match !ready with
  | [] -> plan
  | ready ->
    let v = vname mask in
    Plan.Filter
      {
        var = v;
        pred = Expr.conjoin (List.rev_map (fun c -> rebind v c.c_expr) ready);
        input = plan;
        morsel = false;
      }

let leaf_build (r : region) ~avail i =
  let mask = 1 lsl i in
  finish r ~av:(avail mask) ~mask ~below:(fun _ -> false) (fst r.leaves.(i))

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
   conjuncts as the residual, and newly applicable conjuncts finished on
   top.  Empty when the subsets share no conjunct (no cross products are
   enumerated). *)
let candidates (r : region) ~avail ~m1 ~m2 p1 p2 : Plan.t list =
  let m = m1 lor m2 in
  let a1 = avail m1 and a2 = avail m2 in
  let union12 = avail m in
  let xv = Printf.sprintf "%%x%x" m1 and yv = Printf.sprintf "%%y%x" m2 in
  let below_c i =
    let q = r.conjs.(i).c_req in
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
  let below i = below_c i || List.mem i !consumed in
  let keys = List.rev !keys and residuals = List.rev !residuals in
  if keys = [] && residuals = [] then []
  else
    let residual = Expr.conjoin residuals in
    let algos =
      if keys = [] then [ Plan.Nested_loop ]
      else [ Plan.Hash; Plan.Sort_merge; Plan.Nested_loop ]
    in
    List.map
      (fun algo ->
        finish r ~av:union12 ~mask:m ~below
          (Plan.JoinOp
             {
               algo;
               kind = Expr.Inner;
               xvar = xv;
               yvar = yv;
               keys;
               residual;
               left = p1;
               right = p2;
             }))
      algos

type ctx = { cat : Catalog.t; stats : Stats.t }

let plan_cost (ctx : ctx) p = Cost.cost ~stats:ctx.stats ctx.cat p

(* ------------------------------------------------------------------ *)
(* Enumeration: DP over subsets.                                        *)
(* ------------------------------------------------------------------ *)

(* Returns the cheapest complete region plan with (cost, considered,
   pruned) counters, or [None] when no connected order exists or the
   region has more than [dp_max] relations. *)
let enumerate (ctx : ctx) (r : region) :
    (Plan.t * float * int * int) option =
  let n = Array.length r.leaves in
  if n > dp_max then None
  else begin
    let avail = subset_attrs r in
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
    (* Selinger-style DP: best plan per subset, every 2-partition of every
       subset considered (both orders, so the hash build side is free). *)
    let full = (1 lsl n) - 1 in
    let best = Array.make (full + 1) None in
    for i = 0 to n - 1 do
      let p = leaf_build r ~avail i in
      best.(1 lsl i) <- Some (p, plan_cost p)
    done;
    for m = 1 to full do
      if m land (m - 1) <> 0 then begin
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

(* ------------------------------------------------------------------ *)
(* Region extraction and the top-level pass.                            *)
(* ------------------------------------------------------------------ *)

(* Is this node the root of (part of) an enumerable join region? *)
let rec region_root = function
  | Plan.JoinOp { kind = Expr.Inner; keys = _ :: _; _ } -> true
  | Plan.Filter { input; _ } -> region_root input
  | _ -> false

(* Decompose the region rooted at [p0].  [sub] post-processes the leaves
   — the recursive optimizer for the real pass, the identity for the test
   hook.  Raises [Bail] on anything the enumerator cannot re-place:
   correlated predicates, whole-row predicate uses, and leaves with
   unknown attributes, which every operator other than a scan, rename,
   filter, projection or tuple map is (keyless, outer, semi- and
   antijoins and nestjoins among them). *)
let gather ~sub cat (p0 : Plan.t) : region =
  let leaves = ref [] and conjs = ref [] in
  let push r x = r := x :: !r in
  let push_conjs vars pred =
    List.iter
      (fun c ->
        if not (Expr.is_true c) then push conjs (mk_conj (normalize_binders vars c)))
      (Expr.conjuncts pred)
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
    ref_plan = rp;
  }

(* Semantic preconditions the enumerator needs: at least a 2-way join
   with one conjunct; attribute names disjoint across leaves (the paper's
   rename discipline — ρ on every reused extent — guarantees this in
   rewriter output); and each conjunct reading at least one attribute,
   all of them the leaves', which (with disjointness) pins it to exactly
   one position per tree. *)
let valid_region (r : region) : bool =
  Array.length r.leaves >= 2
  && Array.length r.conjs > 0
  &&
  let attrs = Array.fold_left (fun acc (_, a) -> S.union acc a) S.empty r.leaves in
  S.cardinal attrs
  = Array.fold_left (fun acc (_, a) -> acc + S.cardinal a) 0 r.leaves
  && Array.for_all
       (fun c -> (not (S.is_empty c.c_req)) && S.subset c.c_req attrs)
       r.conjs

(* The region rooted at [p], when it decomposes and is valid. *)
let region ~sub cat p =
  match gather ~sub cat p with
  | r when valid_region r -> Some r
  | _ | (exception Bail) -> None

let rec transform (ctx : ctx) (p : Plan.t) : Plan.t =
  if region_root p then
    match try_region ctx p with Some p' -> p' | None -> descend ctx p
  else descend ctx p

and descend ctx p =
  match Plan.children p with
  | [] -> p
  | kids -> Plan.with_children p (List.map (transform ctx) kids)

and try_region ctx p0 =
  (* A region that fails is optimized again by [descend]: drop the reports
     its leaves' regions made meanwhile, or they would be reported twice. *)
  let reported = !last_report in
  match region ~sub:(transform ctx) ctx.cat p0 with
  | None ->
    last_report := reported;
    None
  | Some r ->
    let rcost = plan_cost ctx r.ref_plan in
    let rfp = Plan.fingerprint r.ref_plan in
    let chosen, ccost, considered, pruned =
      match enumerate ctx r with
      (* Strictly-cheaper adoption: ties keep the rewriter's plan, so
         estimation noise never churns existing fingerprints. *)
      | Some (cand, ccost, considered, pruned) when ccost < rcost ->
        (cand, ccost, considered, pruned)
      | Some (_, _, considered, pruned) -> (r.ref_plan, rcost, considered, pruned)
      | None -> (r.ref_plan, rcost, 0, 0)
    in
    let cfp = Plan.fingerprint chosen in
    last_report :=
      !last_report
      @ [
          {
            relations = Array.to_list r.leaves |> List.map (fun (p, _) -> leaf_label p);
            considered;
            pruned;
            chosen_cost = ccost;
            rewriter_cost = rcost;
            reordered = not (String.equal cfp rfp);
            chosen_fingerprint = cfp;
            rewriter_fingerprint = rfp;
          };
        ];
    Some chosen

let optimize ~stats (cat : Catalog.t) (p : Plan.t) : Plan.t =
  last_report := [];
  transform { cat; stats } p

(* ------------------------------------------------------------------ *)
(* Exhaustive order enumeration (differential-test hook).               *)
(* ------------------------------------------------------------------ *)

let orders ?(limit = 64) (cat : Catalog.t) (p : Plan.t) : Plan.t list =
  (* the first region in the pass's traversal order *)
  let rec find p =
    match if region_root p then region ~sub:Fun.id cat p else None with
    | Some r -> Some (p, r)
    | None -> List.find_map find (Plan.children p)
  in
  match find p with
  | None -> []
  | Some (root, r) ->
    let n = Array.length r.leaves in
    if n > 8 then []
    else begin
      let avail = subset_attrs r in
      let memo = Hashtbl.create 64 in
      let rec plans mask =
        match Hashtbl.find_opt memo mask with
        | Some l -> l
        | None ->
          let res =
            if mask land (mask - 1) = 0 then begin
              let i = ref 0 in
              while 1 lsl !i <> mask do
                incr i
              done;
              [ leaf_build r ~avail !i ]
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
                            acc := candidates r ~avail ~m1 ~m2 p1 p2 @ !acc)
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
      (* each order in place of the region, the rest of the plan as is *)
      let rec splice o q =
        if q == root then o
        else
          match Plan.children q with
          | [] -> q
          | kids -> Plan.with_children q (List.map (splice o) kids)
      in
      let seen = Hashtbl.create 64 in
      List.filter_map
        (fun o ->
          let fp = Plan.fingerprint o in
          if Hashtbl.mem seen fp then None
          else begin
            Hashtbl.add seen fp ();
            Some (splice o p)
          end)
        (plans ((1 lsl n) - 1))
    end
