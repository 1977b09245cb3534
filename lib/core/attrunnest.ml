(* Option (2) of Section 4: unnesting of set-valued attributes with the
   unnest operator mu.

   The transformation is only used when (a) the final nesting is not
   required — the set-valued attribute does not survive into the result,
   because a projection or the map body drops it — and (b) empty set-valued
   attributes cause no problem — the quantification over the attribute is
   existential, so tuples with an empty attribute (which mu drops) would not
   qualify anyway.  Both conditions come straight from the paper's
   discussion of Example Query 4 (referential-integrity violations):

     pi_sid(sigma[s : 'exists' z 'in' s.parts . psi](SUPPLIER))
       = pi_sid(sigma[u : psi'](mu_parts(SUPPLIER)))

   after which Rule 1 applies to psi' and produces the antijoin query of the
   paper.  The same reasoning applies with a map head instead of a
   projection, alpha[x : F](sigma[x : ...](X)), provided F does not touch
   the unnested attribute; this covers sfw-translated queries whose
   select-clause renames attributes. *)

open Njq_adl
open Expr

exception Not_rewritable

(* Replace uses of variable [var]: occurrences as [Field (Var var, b)]
   become [on_field b]; bare occurrences of [Var var] raise.  Binder-aware:
   stops at shadowing binders. *)
let replace_field_uses ~var ~on_field e =
  let rec go e =
    match e with
    | Field (Var v, b) when String.equal v var -> on_field b
    | Var v when String.equal v var -> raise Not_rewritable
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
  go e

(* The common core: rewrite sigma[x : C and 'exists' z 'in' x.c . psi](X)
   into sigma[u : C' and psi'](mu_c(X)), returning the unnested attribute
   [c] and a retargeting function for result-side expressions that use [x].
   [src] must be a closed table expression; all x-uses in the predicate must
   be attribute accesses. *)
let unnest_candidate cat x pred src =
  match Typecheck.infer cat [] src with
  | exception Vtype.Type_error _ -> None
  | Vtype.TSet (Vtype.TTuple fields) when Analysis.is_closed src ->
    let cs = conjuncts pred in
    let candidate = function
      | Quant (Exists, z, Field (Var v, c), psi) when String.equal v x ->
        (match List.assoc_opt c fields with
         | Some (Vtype.TSet elem_ty) ->
           (match elem_ty with
            | Vtype.TTuple zfields ->
              (* The unnested element fields must not clash with the
                 remaining row fields. *)
              let rest_fields =
                List.filter (fun (f, _) -> not (String.equal f c)) fields
              in
              if List.exists (fun (zf, _) -> List.mem_assoc zf rest_fields) zfields
              then None
              else Some (z, c, `Tuple (List.map fst zfields), psi)
            | _ -> Some (z, c, `Atom, psi))
         | _ -> None)
      | _ -> None
    in
    let rec split before = function
      | [] -> None
      | conj :: after ->
        (match candidate conj with
         | Some (z, c, shape, psi) ->
           let others = List.rev_append before after in
           let u = fresh_var "u" in
           let z_replacement =
             match shape with
             | `Tuple zfield_names -> TupleProj (Var u, zfield_names)
             | `Atom -> Field (Var u, c)
           in
           let retarget_result body =
             (* Result-side expressions may not touch the consumed
                attribute (the final nesting must not be required). *)
             replace_field_uses ~var:x
               ~on_field:(fun b ->
                 if String.equal b c then raise Not_rewritable
                 else Field (Var u, b))
               body
           in
           let rewrite_pred body =
             retarget_result (Analysis.subst1 z z_replacement body)
           in
           (match
              let psi' = rewrite_pred psi in
              let others' = List.map rewrite_pred others in
              (psi', others')
            with
            | psi', others' ->
              Some
                ( c,
                  retarget_result,
                  Select
                    { var = u;
                      pred = conjoin (others' @ [ psi' ]);
                      src = Unnest (c, src) } )
            | exception Not_rewritable -> None)
         | None -> split (conj :: before) after)
    in
    split [] cs
  | _ -> None

(* Projection-headed form. *)
let project_rule =
  Rules.rule "μ-attr-unnest π" (fun cat e ->
      match e with
      | Project (attrs, Select { var = x; pred; src }) ->
        (match unnest_candidate cat x pred src with
         | Some (c, _, inner) when not (List.mem c attrs) ->
           Some (Project (attrs, inner))
         | _ -> None)
      | _ -> None)

(* Map-headed form (covers sfw-translated queries whose select-clause
   renames attributes). *)
let map_rule =
  Rules.rule "μ-attr-unnest α" (fun cat e ->
      match e with
      | Map { var = x; body; src = Select { var = x2; pred; src } } ->
        let pred = if String.equal x2 x then pred else Analysis.subst1 x2 (Var x) pred in
        (match unnest_candidate cat x pred src with
         | Some (_, retarget_result, inner) ->
           (match retarget_result body with
            | body' ->
              (* The retargeted body refers to the unnest variable, which is
                 the variable of the inner selection. *)
              let u =
                match inner with
                | Select { var; _ } -> var
                | _ -> assert false
              in
              Some (Map { var = u; body = body'; src = inner })
            | exception Not_rewritable -> None)
         | _ -> None)
      | _ -> None)

let rules = [ project_rule; map_rule ]
