(* Hoisting of uncorrelated subqueries.

   Section 3 of the paper: "uncorrelated subqueries simply are constants,
   and treated as such".  Logically they are; operationally, a closed
   base-table subquery sitting inside an iterator's parameter expression
   would be re-evaluated for every tuple.  This pass replaces every maximal
   closed set-producing subexpression that touches a base table — wherever
   it occurs inside a parameter expression — by the constant value it
   denotes, evaluated once against the catalog.

   Top-level operands are left alone (the plan executes them once anyway
   and keeping them symbolic preserves plan readability and algorithm
   choice); only parameter positions (selection/map/join/quantifier
   bodies) are rewritten. *)

open Njq_adl
open Expr

(* Is this a set-producing expression worth hoisting: closed, uses a base
   table, and not already a constant?  A bare extent is a constant
   reference already: [Compile] reads its rows for free, and a literal
   copy of them would only swell the plan's text and fingerprint. *)
let hoistable e =
  match e with
  | Const _ | Table _ -> false
  | _ -> Analysis.uses_base_table e && Analysis.is_closed e

(* Replace maximal hoistable subexpressions of a parameter expression.  A
   subexpression whose evaluation fails stays as it is: the reference
   evaluator fails only where it reaches one (it may sit in a
   short-circuited conjunct, an untaken [if] branch or the body of an
   empty extent's iterator), and so does the compiled plan, which defers
   the failure to its first use ([Compile.fold_closed]). *)
let rec hoist_in_param cat (e : Expr.t) : Expr.t =
  if hoistable e then
    match Eval.run cat e with
    | v -> Const v
    | exception (Eval.Eval_error _ | Value.Type_error _ | Catalog.Unknown_table _) -> e
  else map_children (hoist_in_param cat) e

(* Walk the operator tree: operands recurse structurally, parameter
   expressions get the hoisting treatment. *)
let rec hoist_expr (cat : Catalog.t) (e : Expr.t) : Expr.t =
  match e with
  | Select { var; pred; src } ->
    Select { var; pred = hoist_in_param cat pred; src = hoist_expr cat src }
  | Map { var; body; src } ->
    Map { var; body = hoist_in_param cat body; src = hoist_expr cat src }
  | Join j ->
    Join
      { j with pred = hoist_in_param cat j.pred; left = hoist_expr cat j.left;
        right = hoist_expr cat j.right }
  | Nestjoin j ->
    Nestjoin
      { j with pred = hoist_in_param cat j.pred;
        body = hoist_in_param cat j.body; left = hoist_expr cat j.left;
        right = hoist_expr cat j.right }
  | _ -> map_children (hoist_expr cat) e

let hoist cat e = Njq_obs.Span.with_span "consthoist" (fun () -> hoist_expr cat e)

