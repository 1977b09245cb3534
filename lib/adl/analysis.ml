(* Static analysis over ADL expressions: free variables, capture-avoiding
   substitution, base-table usage, and correlation tests.  These are the
   building blocks of every rewrite rule in [Njq_core]. *)

module S = Set.Make (String)

open Expr

(* Free variables, respecting the binding structure of iterators:
   [Quant] binds its variable in the predicate, [Map] in the body, [Select]
   in the predicate, join operators bind both variables in the predicate (and
   the nestjoin also in its body function). *)
let rec free_vars (e : Expr.t) : S.t =
  match e with
  | Var x -> S.singleton x
  (* A parameter placeholder is free under the name "?i": no binder can
     capture it, and treating it as open keeps constant-folding passes from
     evaluating across an unbound parameter. *)
  | Param i -> S.singleton (param_name i)
  | Quant (_, x, range, pred) ->
    S.union (free_vars range) (S.remove x (free_vars pred))
  | Map { var; body; src } ->
    S.union (free_vars src) (S.remove var (free_vars body))
  | Select { var; pred; src } ->
    S.union (free_vars src) (S.remove var (free_vars pred))
  | Join { xvar; yvar; pred; left; right; _ } ->
    let bound = S.remove xvar (S.remove yvar (free_vars pred)) in
    S.union bound (S.union (free_vars left) (free_vars right))
  | Nestjoin { xvar; yvar; pred; body; left; right; _ } ->
    let strip s = S.remove xvar (S.remove yvar s) in
    S.union
      (S.union (strip (free_vars pred)) (strip (free_vars body)))
      (S.union (free_vars left) (free_vars right))
  | _ -> fold_children (fun acc c -> S.union acc (free_vars c)) S.empty e

let is_free x e = S.mem x (free_vars e)

(* A closed expression denotes a constant (an uncorrelated subquery). *)
let is_closed e = S.is_empty (free_vars e)

(* Closed up to parameters: every free name is a placeholder "?i", so the
   expression is a constant once the parameters are bound.  Schema
   inference and sargability may treat it as a constant; folding passes
   must not, since they would evaluate across an unbound parameter. *)
let is_closed_up_to_params e =
  S.for_all (fun x -> String.length x > 0 && x.[0] = '?') (free_vars e)

(* Does the expression mention a base table anywhere (including nested in
   iterator parameters)?  [Deref] is excluded on purpose: a pointer lookup is
   not an iteration over a base table, and the paper handles it with the
   separate materialize operator. *)
let rec uses_base_table (e : Expr.t) : bool =
  match e with
  | Table _ -> true
  | _ -> fold_children (fun acc c -> acc || uses_base_table c) false e

let rec base_tables (e : Expr.t) : S.t =
  match e with
  | Table t -> S.singleton t
  | _ -> fold_children (fun acc c -> S.union acc (base_tables c)) S.empty e

(* A "base table expression" in the sense of the unnesting goal: an operand
   that iterates over stored extents rather than over a set-valued attribute.
   Selections, maps and projections over base tables still qualify. *)
let rec is_base_table_expr (e : Expr.t) : bool =
  match e with
  | Table _ -> true
  | Select { src; _ } | Map { src; _ } -> is_base_table_expr src
  | Project (_, src) -> is_base_table_expr src
  | Union (a, b) | Inter (a, b) | Diff (a, b) ->
    is_base_table_expr a && is_base_table_expr b
  | Join { left; right; _ } -> is_base_table_expr left && is_base_table_expr right
  | _ -> false

(* Capture-avoiding substitution.  [subst [(x, e_x); ...] e] replaces free
   occurrences of each variable; binders whose variable would capture a free
   variable of a replacement are renamed with a fresh name first. *)
let rec subst (map : (string * Expr.t) list) (e : Expr.t) : Expr.t =
  if map = [] then e
  else
    match e with
    | Var x -> (match List.assoc_opt x map with Some r -> r | None -> e)
    | Param i ->
      (match List.assoc_opt (param_name i) map with Some r -> r | None -> e)
    | Quant (q, x, range, pred) ->
      let x', pred' = subst_under map [ x ] pred |> unary in
      Quant (q, x', subst map range, pred')
    | Map { var; body; src } ->
      let var', body' = subst_under map [ var ] body |> unary in
      Map { var = var'; body = body'; src = subst map src }
    | Select { var; pred; src } ->
      let var', pred' = subst_under map [ var ] pred |> unary in
      Select { var = var'; pred = pred'; src = subst map src }
    | Join j ->
      let vars, pred' = subst_under map [ j.xvar; j.yvar ] j.pred in
      let xvar, yvar = binary vars in
      Join
        { j with xvar; yvar; pred = pred';
          left = subst map j.left; right = subst map j.right }
    | Nestjoin j ->
      (* pred and body share the same binders; rename them consistently. *)
      let renaming, map' = binder_renaming map [ j.xvar; j.yvar ] [ j.pred; j.body ] in
      let xvar, yvar =
        match renaming with
        | [ a; b ] -> (a, b)
        | _ -> assert false
      in
      Nestjoin
        { j with xvar; yvar;
          pred = subst map' j.pred; body = subst map' j.body;
          left = subst map j.left; right = subst map j.right }
    | _ -> map_children (subst map) e

(* Substitute inside the body of a binder with variables [vs]: variables in
   [vs] are removed from the substitution, and any binder variable that
   occurs free in a replacement expression is renamed. *)
and subst_under map vs body =
  let renaming, map' = binder_renaming map vs [ body ] in
  (renaming, subst map' body)

and binder_renaming map vs bodies =
  let map = List.filter (fun (x, _) -> not (List.mem x vs)) map in
  let replacement_fvs =
    List.fold_left (fun acc (_, r) -> S.union acc (free_vars r)) S.empty map
  in
  let needs_rename x =
    S.mem x replacement_fvs
    && List.exists
         (fun b ->
           let fv = free_vars b in
           S.mem x fv)
         bodies
  in
  let renaming =
    List.map (fun x -> if needs_rename x then (x, fresh_var x) else (x, x)) vs
  in
  let rename_map =
    List.filter_map
      (fun (old_name, new_name) ->
        if String.equal old_name new_name then None else Some (old_name, Var new_name))
      renaming
  in
  let names = List.map snd renaming in
  (names, rename_map @ map)

and unary = function
  | [ x ], body -> (x, body)
  | _ -> assert false

and binary = function
  | [ a; b ] -> (a, b)
  | _ -> assert false

(* [subst1 x r e] replaces the single variable [x] by [r]. *)
let subst1 x r e = subst [ (x, r) ] e

(* Structural replacement of a sub-expression: every occurrence of [old_e]
   (up to structural equality) is replaced by [by].  Used by the grouping and
   nestjoin rewrites to substitute z.g for the subquery Y' inside the outer
   predicate.  The caller must ensure no binder in [e] captures variables of
   [old_e] differently (true for the rewrite patterns we match, where [old_e]
   is a subquery correlated only on the outer iterator variable). *)
let rec replace_subexpr ~old_e ~by (e : Expr.t) : Expr.t =
  if Expr.equal e old_e then by
  else map_children (replace_subexpr ~old_e ~by) e

(* Count structural occurrences of a sub-expression. *)
let rec count_subexpr ~needle (e : Expr.t) : int =
  if Expr.equal e needle then 1
  else fold_children (fun acc c -> acc + count_subexpr ~needle c) 0 e

(* Expression size (number of AST nodes), used to keep rewrite search
   terminating and for reporting. *)
let rec size (e : Expr.t) : int =
  fold_children (fun acc c -> acc + size c) 1 e

(* All sub-expressions satisfying [p], outermost first. *)
let find_all p (e : Expr.t) : Expr.t list =
  let rec go acc e =
    let acc = if p e then e :: acc else acc in
    fold_children go acc e
  in
  List.rev (go [] e)
