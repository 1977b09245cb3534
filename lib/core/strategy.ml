(* The optimization strategy of Section 4, as a priority-ordered driver:

   1. try to rewrite to the relational join operators (join, semijoin,
      antijoin) — normalization into quantifier form, quantifier exchange,
      Rule 1 and Rule 2;
   2. if not possible, try to flatten set-valued attributes (when the final
      nesting can be skipped and empty sets cause no problem), then retry 1;
   3. if not possible, rewrite to the new operators (nestjoin) introduced to
      beat nested-loop processing — optionally the guarded flat-join
      grouping or the outer-join variant instead, for ablation;
   4. otherwise leave the (sub)query as is: nested-loop execution.

   Every phase records its derivation steps; [explain] renders the chain. *)

open Njq_adl

type grouping_mode =
  | Nestjoin_always (* the paper's default: nestjoin for grouping queries *)
  | Flat_join_when_safe (* use join+nu when P(x,{}) = false, else nestjoin *)
  | Outerjoin (* use the outer-join repair instead of the nestjoin *)

type options = {
  enable_division : bool;
      (* unnest universal quantification with the division operator instead
         of the antijoin (ablation; Section 5.2.1) *)
  grouping_mode : grouping_mode;
}

let default_options = { enable_division = false; grouping_mode = Nestjoin_always }

type phase_trace = {
  phase : string;
  steps : Rules.trace;
}

type report = {
  input : Expr.t;
  output : Expr.t;
  phases : phase_trace list;
}

(* Rules of the relational phase: normalization, exchange, Rule 1/2,
   pushdown and σ-merging. *)
let relational_rules =
  Normalize.rules @ Exchange.rules @ Reljoin.rules @ [ Reljoin.merge_selects ]

(* With division enabled, its rule must see the ¬∃ pattern before Rule 1
   turns it into an antijoin. *)
let relational_rules_with_division =
  Normalize.rules @ Exchange.rules @ Divisionrw.rules @ Reljoin.rules
  @ [ Reljoin.merge_selects ]

let grouping_rules mode =
  match mode with
  | Nestjoin_always -> Nestjoinrw.rules
  | Flat_join_when_safe -> [ Grouping.safe_rule ] @ Nestjoinrw.rules
  | Outerjoin -> [ Grouping.outerjoin_rule ] @ Nestjoinrw.rules

(* Run one rule set to fixpoint and record the phase if it did anything. *)
let run_phase cat name rules e phases =
  Njq_obs.Span.with_span ("phase:" ^ name) (fun () ->
      let e', steps = Rules.fixpoint_simplify cat rules e in
      Njq_obs.Span.add_attr "steps" (Njq_obs.Span.AInt (List.length steps));
      if steps = [] then (e, phases)
      else (e', { phase = name; steps } :: phases))

let rewrite ?(options = default_options) (cat : Catalog.t) (e : Expr.t) : report =
  Njq_obs.Span.with_span "rewrite" @@ fun () ->
  let phases = [] in
  let e0 = Fold.simplify e in
  (* Phase 1+2 loop: relational rewriting and attribute unnesting feed each
     other (unnesting an attribute exposes Rule 1 patterns, and vice
     versa). *)
  let rec relational_loop e phases fuel =
    if fuel = 0 then (e, phases)
    else
      let rules =
        if options.enable_division then relational_rules_with_division
        else relational_rules
      in
      let e1, phases = run_phase cat "relational" rules e phases in
      let e2, phases =
        run_phase cat "attribute-unnest" Attrunnest.rules e1 phases
      in
      if Expr.equal e2 e then (e2, phases) else relational_loop e2 phases (fuel - 1)
  in
  let e1, phases = relational_loop e0 phases 32 in
  (* Phase 3: grouping-style unnesting (nestjoin / guarded flat join /
     outer join), then another relational pass over what it produced. *)
  let e2, phases =
    let g, phases =
      run_phase cat "grouping" (grouping_rules options.grouping_mode) e1 phases
    in
    if Expr.equal g e1 then (g, phases) else relational_loop g phases 32
  in
  (* Final cleanup: classical algebraic reductions (projection-join
     reduction, pushdowns through unions) that shrink intermediate results
     without changing the unnesting decisions. *)
  let e3, phases = run_phase cat "cleanup" Cleanup.rules e2 phases in
  let output = Fold.simplify e3 in
  { input = e; output; phases = List.rev phases }

(* Convenience: rewritten expression only. *)
let optimize ?options cat e = (rewrite ?options cat e).output

let pp_report ppf (r : report) =
  Fmt.pf ppf "@[<v>input:    %a@," Pretty.pp r.input;
  List.iter
    (fun { phase; steps } ->
      Fmt.pf ppf "— %s —@," phase;
      List.iter (fun s -> Fmt.pf ppf "  %a@," Rules.pp_step s) steps)
    r.phases;
  Fmt.pf ppf "output:   %a@]" Pretty.pp r.output

(* Count of rewrite steps across all phases, used in tests and reports. *)
let step_count (r : report) =
  List.fold_left (fun acc p -> acc + List.length p.steps) 0 r.phases
