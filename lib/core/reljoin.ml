(* Rewriting into flat relational join queries (Section 5, Rule 1 and
   Rule 2).

   Rule 1 (unnesting quantifier expressions): for X, Y table expressions
   with x not free in Y,

     sigma[x : 'exists' y 'in' Y . p](X)      =  X semijoin[x,y : p] Y
     sigma[x : 'not exists' y 'in' Y . p](X)  =  X antijoin[x,y : p] Y

   We apply them conjunct-wise: a quantifier conjunct is peeled off into a
   semijoin/antijoin and the remaining conjuncts stay in a selection, so
   sigma[x : C and 'exists' y 'in' Y . p](X) becomes
   (sigma[x : C](X)) semijoin[x,y : p] Y.

   Rule 2 (nesting in the map operator):

     U(alpha[x : alpha[y : x o y](sigma[y : p](Y))](X))  =  X join[x,y : p] Y

   The right operand must involve base tables (the unnesting goal is to pull
   base tables to top level) and must not be correlated with x. *)

open Njq_adl
open Expr

(* A conjunct that Rule 1 can turn into a join operator.  Returns
   (kind, yvar, range, pred). *)
let join_candidate x = function
  | Quant (Exists, y, range, p)
    when Analysis.uses_base_table range && not (Analysis.is_free x range) ->
    Some (Semi, y, range, p)
  | Not (Quant (Exists, y, range, p))
    when Analysis.uses_base_table range && not (Analysis.is_free x range) ->
    Some (Anti, y, range, p)
  | _ -> None

(* Rule 1, applied conjunct-wise (see the header). *)
let rule1 =
  Rules.rule "Rule1 σ∃→⋉/▷" (fun _cat e ->
      match e with
      | Select { var = x; pred; src = bt } ->
        let cs = conjuncts pred in
        let rec split before = function
          | [] -> None
          | c :: after ->
            (match join_candidate x c with
             | Some (kind, y, range, p) ->
               let rest = List.rev_append before after in
               let left =
                 match rest with
                 | [] -> bt
                 | _ -> Select { var = x; pred = conjoin rest; src = bt }
               in
               (* Rename the join variable if it collides with x. *)
               let y, p =
                 if String.equal y x then
                   let y' = fresh_var y in
                   (y', Analysis.subst1 y (Var y') p)
                 else (y, p)
               in
               Some (Join { kind; xvar = x; yvar = y; pred = p; left; right = range })
             | None -> split (c :: before) after)
        in
        split [] cs
      | _ -> None)

(* Rule 2.  The inner map body must be exactly the concatenation x o y (up
   to variable naming); the inner operand may carry a selection, which
   becomes the join predicate (true if absent). *)
let rule2 =
  Rules.rule "Rule2 ⋃α→⋈" (fun _cat e ->
      match e with
      | Flatten (Map { var = x; body = Map { var = y; body = inner; src = ysrc }; src = xsrc })
        when (match inner with
              | Concat (Var a, Var b) -> String.equal a x && String.equal b y
              | _ -> false) ->
        (* The correlation on x may sit in the inner selection's predicate —
           it becomes the join predicate; only the stripped range must be
           independent of x. *)
        let pred, right =
          match ysrc with
          | Select { var = sv; pred; src } -> (Analysis.subst1 sv (Var y) pred, src)
          | _ -> (true_, ysrc)
        in
        if Analysis.uses_base_table right && not (Analysis.is_free x right) then
          Some (Join { kind = Inner; xvar = x; yvar = y; pred; left = xsrc; right })
        else None
      | _ -> None)

(* Generalized Rule 2: the inner map body need not be the plain
   concatenation — any body F(x, y) can be transferred onto the join,
   retargeting x and y to the concatenated join tuple:

     U(alpha[x : alpha[y : F](sigma[y : p](Y))](X))
       =  alpha[z : F[z[SCH X]/x, z[SCH Y]/y]](X join[x,y : p] Y)

   provided SCH(X) and SCH(Y) are disjoint (required for the join anyway)
   and both operands are closed.  This is what unnests multi-binding
   from-clauses (from x in X, y in Y ...), whose translation produces
   exactly this flatten-of-nested-maps shape with a tuple-building body. *)
(* Rename attribute accesses [Field (Var var, old)] according to [pairs],
   respecting binders that shadow [var]; fails (None) when [var] occurs as
   a bare variable, since the renamed row is no longer the original. *)
exception Bare_use

let rename_field_uses ~var ~pairs e =
  let rec go e =
    match e with
    | Field (Var v, a) when String.equal v var ->
      (match List.assoc_opt a pairs with
       | Some n -> Field (Var v, n)
       | None -> e)
    | Var v when String.equal v var -> raise Bare_use
    | Quant (q, v, range, pred) when String.equal v var ->
      Quant (q, v, go range, pred)
    | Map { var = v; body; src } when String.equal v var ->
      Map { var = v; body; src = go src }
    | Select { var = v; pred; src } when String.equal v var ->
      Select { var = v; pred; src = go src }
    | Join ({ xvar; yvar; left; right; _ } as j)
      when String.equal xvar var || String.equal yvar var ->
      Join { j with left = go left; right = go right }
    | Nestjoin ({ xvar; yvar; left; right; _ } as j)
      when String.equal xvar var || String.equal yvar var ->
      Nestjoin { j with left = go left; right = go right }
    | _ -> map_children go e
  in
  match go e with e' -> Some e' | exception Bare_use -> None

let rule2_general =
  Rules.rule "Rule2-general ⋃α→α⋈" (fun cat e ->
      match e with
      | Flatten (Map { var = x; body = Map { var = y; body = f; src = ysrc }; src = xsrc })
        when not (String.equal x y) ->
        let pred, right =
          match ysrc with
          | Select { var = sv; pred; src } -> (Analysis.subst1 sv (Var y) pred, src)
          | _ -> (true_, ysrc)
        in
        if
          Analysis.uses_base_table right
          && (not (Analysis.is_free x right))
          && not (Analysis.is_free y right)
        then
          match Subquery.schema_of cat xsrc, Subquery.schema_of cat right with
          | Some sch_x, Some sch_y ->
            (* Overlapping schemas would make the join's concatenation
               clash; insert the paper's renaming operator rho on the right
               operand for the clashing attributes. *)
            let clashes = List.filter (fun a -> List.mem a sch_x) sch_y in
            let taken = ref (sch_x @ sch_y) in
            let pairs =
              List.map
                (fun a ->
                  let rec pick i =
                    let cand = Printf.sprintf "%s_r%d" a i in
                    if List.mem cand !taken then pick (i + 1)
                    else begin
                      taken := cand :: !taken;
                      cand
                    end
                  in
                  (a, pick 1))
                clashes
            in
            let apply_renaming owner =
              if pairs = [] then Some owner
              else rename_field_uses ~var:y ~pairs owner
            in
            (match apply_renaming pred, apply_renaming f with
             | Some pred, Some f ->
               let right =
                 if pairs = [] then right else Rename (pairs, right)
               in
               let sch_y =
                 List.map
                   (fun a ->
                     match List.assoc_opt a pairs with
                     | Some n -> n
                     | None -> a)
                   sch_y
               in
               let z = fresh_var "z" in
               let f' =
                 Analysis.subst
                   [ (x, TupleProj (Var z, sch_x)); (y, TupleProj (Var z, sch_y)) ]
                   f
               in
               Some
                 (Map
                    { var = z; body = f';
                      src = Join { kind = Inner; xvar = x; yvar = y; pred;
                                   left = xsrc; right } })
             | _ -> None)
          | _ -> None
        else None
      | _ -> None)

(* Uncorrelated emptiness subqueries at selection level become semijoins
   with predicate true through Rule 1 already; nothing extra needed.

   An additional cleanup: a selection whose source is itself wrapped by the
   same variable can be merged, keeping derivations small. *)
let merge_selects =
  Rules.rule "σ∘σ-merge" (fun _cat e ->
      match e with
      | Select { var = x; pred = p; src = Select { var = x2; pred = q; src } } ->
        let q' = if String.equal x x2 then q else Analysis.subst1 x2 (Var x) q in
        Some (Select { var = x; pred = And (q', p); src })
      | _ -> None)

(* Push join-predicate conjuncts that constrain a single operand down into a
   selection on that operand.  This both matches the paper's presentation
   (Example Query 5 ends as SUPPLIER semijoin sigma[p : color=red](PART))
   and exposes smaller operands to the physical engine.

   Right-side pushdown is valid for every join kind: restricting Y by a
   conjunct q(y) does not change which pairs satisfy the conjunction.  A
   left-side conjunct c(x) may only be pushed for inner and semi joins: for
   the antijoin, 'not exists y . (c(x) and p)' also keeps tuples with
   'not c(x)', and for the outer join a failing c(x) must still produce a
   NULL-padded tuple. *)
let push_join_operand_selection =
  Rules.rule "σ-pushdown" (fun _cat e ->
      match e with
      | Join { kind; xvar; yvar; pred; left; right } ->
        let only v c =
          let fv = Analysis.free_vars c in
          (* Constant conjuncts stay in the predicate: pushing them would
             churn without progress. *)
          (not (Analysis.S.is_empty fv))
          && Analysis.S.subset fv (Analysis.S.singleton v)
        in
        let cs = conjuncts pred in
        let right_push, rest = List.partition (only yvar) cs in
        let left_push, keep =
          match kind with
          | Inner | Semi -> List.partition (only xvar) rest
          | Anti | LeftOuter _ -> ([], rest)
        in
        if right_push = [] && left_push = [] then None
        else
          let wrap var conj src =
            match conj with
            | [] -> src
            | _ -> Select { var; pred = conjoin conj; src }
          in
          Some
            (Join
               { kind; xvar; yvar; pred = conjoin keep;
                 left = wrap xvar left_push left;
                 right = wrap yvar right_push right })
      | Nestjoin ({ xvar; yvar; pred; right; _ } as j) ->
        (* For the nestjoin only right-side conjuncts may be pushed: a
           left-side conjunct c(x) failing must yield an EMPTY group for x,
           not drop x from the result. *)
        let only v c =
          let fv = Analysis.free_vars c in
          (not (Analysis.S.is_empty fv))
          && Analysis.S.subset fv (Analysis.S.singleton v)
        in
        ignore xvar;
        let right_push, keep = List.partition (only yvar) (conjuncts pred) in
        if right_push = [] then None
        else
          Some
            (Nestjoin
               { j with pred = conjoin keep;
                 right =
                   Select { var = yvar; pred = conjoin right_push; src = right } })
      | _ -> None)

let rules = [ rule1; rule2; rule2_general; push_join_operand_selection ]
