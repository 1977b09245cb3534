(* Unnesting by grouping (Section 5.2.2): the Kim / Ganski-Wong technique of
   evaluating the inner block with a join, grouping with nest, and testing
   the predicate between blocks on the groups:

     sigma[x : P(x, Y')](X)   with Y' = sigma[y : Q(x, y)](Y)
       ~~>  pi_{SCH(X)}(sigma[z : P'](nu_{SCH(Y) -> g}(X join[x,y : Q] Y)))

   This produces a flat relational join query, BUT loses dangling X-tuples
   (those with Y' = {}) in the join: the paper's Complex Object bug
   (Figure 2).  The transformation is therefore only correct when P(x, {})
   statically reduces to false ([Emptyset]); [rewrite_unsafe] applies it
   without the guard, exactly to reproduce the bug, and [safe_rule] applies
   it only under the guard.

   [outerjoin_rule] is the repair discussed in the paper: a left outer join
   keeps dangling tuples, padding with NULLs; the nest step is then adapted
   so that an all-NULL group becomes the empty set. *)

open Njq_adl
open Expr

type variant = Unsafe | Guarded | Outerjoin

(* Core transform; [variant] gives the join kind and group cleanup. *)
let transform cat ~variant e =
  match e with
  | Select { var = x; pred; src } ->
    (match Subquery.find x pred with
     | None -> None
     | Some sq ->
       (match Subquery.schema_of cat src, Subquery.schema_of cat sq.range with
        | Some sch_x, Some sch_y ->
          if List.exists (fun a -> List.mem a sch_x) sch_y then None
          else if
            (match variant with
             | Guarded ->
               not (Emptyset.grouping_join_is_safe ~subquery:sq.occurrence pred)
             | Unsafe | Outerjoin -> false)
          then None
          else
            let g = Subquery.fresh_attr (sch_x @ sch_y) in
            let z = fresh_var "z" in
            let kind =
              match variant with
              | Unsafe | Guarded -> Inner
              | Outerjoin -> LeftOuter sch_y
            in
            let join =
              Join
                { kind; xvar = x; yvar = sq.yvar; pred = sq.q;
                  left = src; right = sq.range }
            in
            let nested = Nest { attrs = sch_y; into = g; src = join } in
            let grouped =
              match variant with
              | Unsafe | Guarded -> nested
              | Outerjoin ->
                (* Adapted nest: a group arising solely from NULL padding
                   denotes the empty set.  NULL padding is recognizable on
                   any single right-hand attribute because stored data never
                   contains NULL. *)
                let a0 =
                  match sch_y with
                  | a :: _ -> a
                  | [] -> invalid_arg "Grouping: empty right schema"
                in
                let w = fresh_var "w" in
                let cleanup =
                  Except
                    ( Var z,
                      [ ( g,
                          Select
                            { var = w;
                              pred = Cmp (Neq, Field (Var w, a0), Const Value.VNull);
                              src = Field (Var z, g) } ) ] )
                in
                Map { var = z; body = cleanup; src = nested }
            in
            let z' = fresh_var "z" in
            (* The groups hold right-operand tuples; when the subquery's map
               body G is not the identity the occurrence of Y' becomes
               alpha[y : G](z.g), which [Fold] collapses when G is trivial.
               G may reference x; the retargeting substitution below also
               rewrites those occurrences to z'[SCH(X)]. *)
            let by =
              if Expr.equal sq.body (Var sq.yvar) then Field (Var z', g)
              else
                Map { var = sq.yvar; body = sq.body; src = Field (Var z', g) }
            in
            let pred' =
              Nestjoinrw.retarget_with ~x ~z:z' ~sch_x ~occurrence:sq.occurrence
                ~by pred
            in
            Some (Project (sch_x, Select { var = z'; pred = pred'; src = grouped }))
        | _ -> None))
  | _ -> None

let safe_rule =
  Rules.rule "grouping ⋈+ν (guarded)" (fun cat e -> transform cat ~variant:Guarded e)

let outerjoin_rule =
  Rules.rule "grouping ⟕+ν" (fun cat e -> transform cat ~variant:Outerjoin e)

(* The deliberately unguarded transformation; used by the paper-artifact
   driver and tests to exhibit the Complex Object bug of Figure 2.  Not part
   of any strategy. *)
let rewrite_unsafe cat e =
  match transform cat ~variant:Unsafe e with
  | Some e' -> e'
  | None -> invalid_arg "Grouping.rewrite_unsafe: pattern did not match"

let rewrite_outerjoin cat e =
  match transform cat ~variant:Outerjoin e with
  | Some e' -> e'
  | None -> invalid_arg "Grouping.rewrite_outerjoin: pattern did not match"
