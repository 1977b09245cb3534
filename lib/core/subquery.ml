(* Detection of correlated base-table subqueries inside iterator parameter
   expressions — the common engine behind unnesting by grouping and the
   nestjoin rewrite (Sections 5.2.2 and 6.1).

   A subquery in the sense of the paper's general two-block format is

       Y' = alpha[y : G(x, y)](sigma[y : Q(x, y)](Y))

   where Y is a base-table expression not referencing the outer variable x,
   and the correlation is through Q (and possibly G).  We normalize the
   shapes [Select], [Map over Select], and [Map] into one record. *)

open Njq_adl
open Expr

type t = {
  occurrence : Expr.t; (* the subquery expression as it occurs in P *)
  yvar : string; (* iteration variable over Y *)
  q : Expr.t; (* inner predicate Q(x, y); true_ if none *)
  body : Expr.t; (* inner map body G(x, y); Var yvar if identity *)
  range : Expr.t; (* the base-table expression Y *)
}

(* Recognize a subquery shape rooted at [e]. *)
let recognize (e : Expr.t) : t option =
  match e with
  | Select { var = y; pred = q; src = range } ->
    Some { occurrence = e; yvar = y; q; body = Var y; range }
  | Map { var = ym; body; src = Select { var = y; pred = q; src = range } } ->
    (* Align the map variable with the selection variable. *)
    let body = if String.equal ym y then body else Analysis.subst1 ym (Var y) body in
    Some { occurrence = e; yvar = y; q; body; range }
  | Map { var = ym; body; src = range } ->
    Some { occurrence = e; yvar = ym; q = true_; body; range }
  | _ -> None

(* Is [sq] a candidate for unnesting relative to outer variable [x]?  The
   range must involve base tables, must not itself be correlated on x, and
   the subquery must be correlated on x (an uncorrelated subquery is a
   constant and is left alone, per Section 3). *)
let is_candidate x (sq : t) =
  Analysis.uses_base_table sq.range
  && (not (Analysis.is_free x sq.range))
  && Analysis.is_free x sq.occurrence

(* Find the outermost correlated base-table subquery of [x] within predicate
   or body [p], skipping subtrees in which [x] is shadowed by a binder.
   [bound] holds the binders passed on the way down: a candidate that
   mentions one of them cannot be moved out of that binder's scope. *)
let find x (p : Expr.t) : t option =
  let exception Found of t in
  let rec go bound e =
    (match recognize e with
     | Some sq
       when is_candidate x sq
            && not (List.exists (fun v -> Analysis.is_free v sq.occurrence) bound)
       ->
       raise (Found sq)
     | _ -> ());
    match e with
    | Quant (_, v, range, pred) ->
      go bound range;
      if not (String.equal v x) then go (v :: bound) pred
    | Map { var; body; src } ->
      go bound src;
      if not (String.equal var x) then go (var :: bound) body
    | Select { var; pred; src } ->
      go bound src;
      if not (String.equal var x) then go (var :: bound) pred
    | Join { xvar; yvar; pred; left; right; _ } ->
      go bound left;
      go bound right;
      if not (String.equal xvar x || String.equal yvar x) then
        go (xvar :: yvar :: bound) pred
    | Nestjoin { xvar; yvar; pred; body; left; right; _ } ->
      go bound left;
      go bound right;
      if not (String.equal xvar x || String.equal yvar x) then begin
        go (xvar :: yvar :: bound) pred;
        go (xvar :: yvar :: bound) body
      end
    | _ -> ignore (Expr.fold_children (fun () c -> go bound c) () e)
  in
  match go [] p with () -> None | exception Found sq -> Some sq

(* Schema of a closed table expression, via type inference.  Parameters
   count as constants here (they type as [TAny] and never change a
   schema), so a prepared template rewrites like its literal twin. *)
let schema_of cat (e : Expr.t) : string list option =
  if not (Analysis.is_closed_up_to_params e) then None
  else
    match Typecheck.infer cat [] e with
    | Vtype.TSet (Vtype.TTuple fields) -> Some (List.map fst fields)
    | _ -> None
    | exception Vtype.Type_error _ -> None

(* A fresh attribute name not clashing with any name in [avoid]. *)
let rec fresh_attr avoid =
  let g = fresh_var "g" in
  if List.mem g avoid then fresh_attr avoid else g
