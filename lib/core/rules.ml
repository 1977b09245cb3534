(* Rewrite-rule infrastructure.

   A rule is a partial function on expressions, tried at a single node.  The
   driver applies a rule set anywhere in the tree (outermost node first),
   one step at a time, and iterates to a fixpoint, recording a derivation
   trace.  Rules receive the catalog so they can consult schemas. *)

open Njq_adl

type rule = {
  name : string;
  apply : Catalog.t -> Expr.t -> Expr.t option;
}

let rule name apply = { name; apply }

(* A derivation step: the rule fired and produced the given whole query. *)
type step = {
  rule_name : string;
  result : Expr.t;
}

type trace = step list (* in application order *)

(* Try each rule at node [e]; first success wins. *)
let try_rules cat rules e =
  List.find_map
    (fun r ->
      match r.apply cat e with
      | Some e' when not (Expr.equal e' e) -> Some (r.name, e')
      | _ -> None)
    rules

(* Apply one rewrite step anywhere in [e], outermost-first, leftmost-first.
   Returns [None] when no rule applies anywhere. *)
let rec step_anywhere cat rules (e : Expr.t) : (string * Expr.t) option =
  match try_rules cat rules e with
  | Some _ as hit -> hit
  | None ->
    (* Descend: rebuild [e] with the first child that admits a step
       replaced.  We reuse [map_children] with an exception to stop after
       the first rewritten child. *)
    let fired = ref None in
    let visit child =
      match !fired with
      | Some _ -> child
      | None ->
        (match step_anywhere cat rules child with
         | Some (name, child') ->
           fired := Some name;
           child'
         | None -> child)
    in
    let e' = Expr.map_children visit e in
    (match !fired with Some name -> Some (name, e') | None -> None)

(* Iterate [step_anywhere] to a fixpoint.  [fuel] bounds the number of steps
   as a safety net against non-terminating rule sets (a bug, but better
   reported than looped). *)
let fixpoint ?(fuel = 10_000) cat rules (e : Expr.t) : Expr.t * trace =
  let rec go fuel e acc =
    if fuel = 0 then failwith "Rules.fixpoint: out of fuel (diverging rule set?)"
    else
      (* The fired rule's name is only known after the step returns, so the
         firing is recorded as an after-the-fact span. *)
      let t0 = if Njq_obs.Span.tracing () then Njq_obs.Clock.now_ns () else 0 in
      match step_anywhere cat rules e with
      | None -> (e, List.rev acc)
      | Some (name, e') ->
        if Njq_obs.Span.tracing () then
          Njq_obs.Span.emit ~start_ns:t0 ("rule:" ^ name);
        go (fuel - 1) e' ({ rule_name = name; result = e' } :: acc)
  in
  go fuel e []

(* Run [fixpoint] and interleave a simplification pass after every step so
   that rules see folded terms (e.g. double negations removed). *)
let fixpoint_simplify ?(fuel = 10_000) cat rules (e : Expr.t) : Expr.t * trace =
  let rec go fuel e acc =
    if fuel = 0 then failwith "Rules.fixpoint_simplify: out of fuel"
    else
      let t0 = if Njq_obs.Span.tracing () then Njq_obs.Clock.now_ns () else 0 in
      match step_anywhere cat rules e with
      | None -> (e, List.rev acc)
      | Some (name, e') ->
        let e' = Fold.simplify e' in
        if Njq_obs.Span.tracing () then
          Njq_obs.Span.emit ~start_ns:t0 ("rule:" ^ name);
        go (fuel - 1) e' ({ rule_name = name; result = e' } :: acc)
  in
  go fuel (Fold.simplify e) []

let pp_step ppf { rule_name; result } =
  Fmt.pf ppf "@[<2>%-28s ⇒  %a@]" rule_name Pretty.pp result
