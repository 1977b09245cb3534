(* The nestjoin rewrite (Section 6.1): unnesting of nested queries that
   require grouping, without losing dangling left-operand tuples.

   For the two-block select query

     sigma[x : P(x, Y')](X)   with Y' = sigma[y : Q(x, y)](Y)

   the transformation is

     pi_{SCH(X)}(sigma[z : P'](X nestjoin[x,y : Q ; g] Y))

   where P' = P[ z[SCH(X)] / x, z.g / Y' ], and for nesting in the map
   operator (select-clause):

     alpha[x : F(x, Y')](X)  =  alpha[z : F'](X nestjoin[x,y : Q ; g] Y)

   The extended nestjoin's function parameter carries the subquery's map
   body G when it is not the identity. *)

open Njq_adl
open Expr

(* Build the rewritten parameter expression: replace the subquery by [by]
   (z.g for the nestjoin, possibly remapped for grouping) and the outer
   variable by z[SCH(X)].  The replacement happens before the variable
   substitution so that any free x inside [by] is also retargeted when the
   caller wants that (the grouping rewrite relies on it). *)
let retarget_with ~x ~z ~sch_x ~occurrence ~by p =
  let p = Analysis.replace_subexpr ~old_e:occurrence ~by p in
  Analysis.subst1 x (TupleProj (Var z, sch_x)) p

(* [retarget_with] with [by = z.g]. *)
let retarget ~x ~z ~g ~sch_x ~occurrence p =
  retarget_with ~x ~z ~sch_x ~occurrence ~by:(Field (Var z, g)) p

(* Build the nestjoin node for a recognized subquery. *)
let make_nestjoin ~x (sq : Subquery.t) ~g ~left =
  Nestjoin
    { xvar = x; yvar = sq.yvar; pred = sq.q; body = sq.body; attr = g;
      left; right = sq.range }

let select_rule =
  Rules.rule "nestjoin σ" (fun cat e ->
      match e with
      | Select { var = x; pred; src } ->
        (match Subquery.find x pred with
         | None -> None
         | Some sq ->
           (match Subquery.schema_of cat src with
            | None -> None
            | Some sch_x ->
              let g = Subquery.fresh_attr sch_x in
              let z = fresh_var "z" in
              let pred' =
                retarget ~x ~z ~g ~sch_x ~occurrence:sq.occurrence pred
              in
              Some
                (Project
                   ( sch_x,
                     Select
                       { var = z; pred = pred';
                         src = make_nestjoin ~x sq ~g ~left:src } ))))
      | _ -> None)

let map_rule =
  Rules.rule "nestjoin α" (fun cat e ->
      match e with
      | Map { var = x; body; src } ->
        (match Subquery.find x body with
         | None -> None
         | Some sq ->
           (match Subquery.schema_of cat src with
            | None -> None
            | Some sch_x ->
              let g = Subquery.fresh_attr sch_x in
              let z = fresh_var "z" in
              let body' =
                retarget ~x ~z ~g ~sch_x ~occurrence:sq.occurrence body
              in
              Some (Map { var = z; body = body'; src = make_nestjoin ~x sq ~g ~left:src })))
      | _ -> None)

(* Deeper nesting levels (Section 7's future work): when the nestjoin's
   function parameter itself contains a base-table subquery correlated on
   the RIGHT variable, chain a second nestjoin on the right operand:

     X ⊣[x,y : P ; F(y, Z'(y)) ; a] Y
       =  X ⊣[x,w : P[w\[SCH(Y)\]/y] ; F[w\[SCH(Y)\]/y, w.g/Z'] ; a]
            (Y ⊣[y,z : Q ; G ; g] Z)

   Each right row y extends to exactly one w carrying its group, so the
   per-x groups are unchanged. *)
let nestjoin_body_rule =
  Rules.rule "nestjoin body ⊣" (fun cat e ->
      match e with
      | Nestjoin ({ xvar; yvar; pred; body; right; _ } as j) ->
        (match Subquery.find yvar body with
         | Some sq
           when (not (Analysis.is_free xvar sq.occurrence))
                && not (Analysis.is_free xvar sq.range) ->
           (match Subquery.schema_of cat right with
            | None -> None
            | Some sch_y ->
              let g = Subquery.fresh_attr sch_y in
              let w = fresh_var "w" in
              let body' =
                retarget ~x:yvar ~z:w ~g ~sch_x:sch_y ~occurrence:sq.occurrence
                  body
              in
              let pred' = Analysis.subst1 yvar (TupleProj (Var w, sch_y)) pred in
              let inner = make_nestjoin ~x:yvar sq ~g ~left:right in
              Some
                (Nestjoin
                   { j with yvar = w; pred = pred'; body = body'; right = inner }))
         | _ -> None)
      | _ -> None)

let rules = [ select_rule; map_rule; nestjoin_body_rule ]
