(* End-to-end pipeline tests: OOSQL text -> parse -> typed translation ->
   strategy rewrite -> physical plan -> execution, validated against the
   reference (nested-loop) evaluation of the un-rewritten query, across
   database configurations and grouping modes. *)

open Njq_adl
module Metrics = Njq_obs.Metrics
module Strategy = Njq_core.Strategy
module Planner = Njq_engine.Planner
module Gen = Njq_workload.Generator
module Queries = Njq_workload.Queries

let configs =
  [ ("default", Gen.default_config);
    ("tiny", { Gen.default_config with parts = 3; suppliers = 2; deliveries = 2 });
    ("empty-heavy", { Gen.default_config with empty_rate = 0.8 });
    ("empty-tables", { Gen.default_config with parts = 0; suppliers = 0; deliveries = 0 });
    ("big-fanout", { Gen.default_config with fanout = 16; supply_fanout = 8 }) ]

let clean cfg = { cfg with Gen.dangling_rate = 0.0 }

let run_pipeline ?options cat adl =
  let report = Strategy.rewrite ?options cat adl in
  Njq_engine.Exec.run cat (Planner.plan report.Strategy.output)

(* A base-table subquery that mentions a variable bound between it and
   the outer binder ([u], bound by the map over [d.supply]) must stay in
   [u]'s scope rather than be hoisted into a nestjoin on [d]; in both
   range orders. *)
let scoping_queries =
  [ "select (d = d.oid, q = u.quantity) from d in DELIVERY, u in d.supply, \
     p in PART where u.part = p.oid and u.quantity > 50";
    "select (d = d.oid, q = u.quantity) from p in PART, d in DELIVERY, \
     u in d.supply where u.part = p.oid and u.quantity > 50" ]

let test_full_pipeline () =
  List.iter
    (fun (cfg_name, cfg) ->
      let check name cat adl =
        Alcotest.check Util.value
          (Printf.sprintf "%s on %s" name cfg_name)
          (Eval.run cat adl) (run_pipeline cat adl)
      in
      List.iter
        (fun (q : Queries.query) ->
          let cfg = if q.needs_integrity then clean cfg else cfg in
          check q.id (Gen.catalog cfg) (Queries.to_adl q))
        Queries.all;
      List.iter
        (fun text ->
          let adl, _ = Njq_oosql.Translate.query_string Queries.schema text in
          check text (Gen.catalog cfg) adl)
        scoping_queries)
    configs

let test_all_grouping_modes () =
  let cat = Gen.catalog (clean Gen.default_config) in
  List.iter
    (fun mode ->
      List.iter
        (fun (q : Queries.query) ->
          let adl = Queries.to_adl q in
          let options = { Strategy.enable_division = false; grouping_mode = mode } in
          Alcotest.check Util.value (q.id ^ " under mode")
            (Eval.run cat adl)
            (run_pipeline ~options cat adl))
        Queries.all)
    [ Strategy.Nestjoin_always; Strategy.Flat_join_when_safe; Strategy.Outerjoin ]

(* Catalog planning with constant hoisting (the Planner.run path) agrees
   with the reference on the whole corpus. *)
let test_cost_based_hoisted () =
  let cat = Gen.catalog (clean Gen.default_config) in
  List.iter
    (fun (q : Queries.query) ->
      let adl = Queries.to_adl q in
      let out = Strategy.optimize cat adl in
      Alcotest.check Util.value (q.id ^ " cost-based + hoisted")
        (Eval.run cat adl)
        (Planner.run cat out))
    (Queries.all @ Queries.extended)

(* The unrewritten query, which --no-opt plans, must still produce
   correct plans (nested-loop execution through the planner fallback). *)
let test_no_optimization () =
  let cat = Gen.catalog (clean Gen.default_config) in
  List.iter
    (fun (q : Queries.query) ->
      let adl = Queries.to_adl q in
      Alcotest.check Util.value (q.id ^ " unoptimized")
        (Eval.run cat adl) (Planner.run cat adl))
    Queries.all

(* Rewriting is idempotent: optimizing an already-optimized query changes
   nothing. *)
let test_idempotence () =
  let cat = Gen.catalog (clean Gen.default_config) in
  List.iter
    (fun (q : Queries.query) ->
      let once = Strategy.optimize cat (Queries.to_adl q) in
      let twice = Strategy.optimize cat once in
      Alcotest.check Util.expr (q.id ^ " idempotent") once twice)
    Queries.all

(* The rewritten pipeline reduces measured work on a larger database. *)
let test_scaled_work_reduction () =
  let cat = Gen.catalog (clean (Gen.scaled ~seed:11 128)) in
  let q = Queries.to_adl (Queries.find "EQ5") in
  let nested_work =
    Metrics.reset_counters ();
    ignore (Eval.run cat q);
    Metrics.get "nl_pred_eval"
  in
  let rewritten = Strategy.optimize cat q in
  let set_oriented_work =
    Metrics.reset_counters ();
    ignore (Njq_engine.Exec.run cat (Planner.plan rewritten));
    Metrics.get "nl_pred_eval" + Metrics.get "hash_probe"
    + Metrics.get "hash_build" + Metrics.get "filter_eval"
  in
  Alcotest.(check bool)
    (Printf.sprintf "set-oriented %d << nested %d" set_oriented_work nested_work)
    true
    (set_oriented_work * 4 < nested_work)

(* Query results over the paper's schema stay stable across runs (catalog
   determinism + canonical values make results reproducible). *)
let test_reproducibility () =
  let run_once () =
    let cat = Gen.catalog (clean Gen.default_config) in
    List.map
      (fun (q : Queries.query) -> run_pipeline cat (Queries.to_adl q))
      Queries.all
  in
  List.iter2
    (fun a b -> Alcotest.check Util.value "stable" a b)
    (run_once ()) (run_once ())

let () =
  Alcotest.run "e2e"
    [ ( "pipeline",
        [ Alcotest.test_case "all queries x all configs" `Slow test_full_pipeline;
          Alcotest.test_case "all grouping modes" `Quick test_all_grouping_modes;
          Alcotest.test_case "cost-based + hoisted" `Quick test_cost_based_hoisted;
          Alcotest.test_case "no optimization" `Quick test_no_optimization;
          Alcotest.test_case "idempotence" `Quick test_idempotence;
          Alcotest.test_case "work reduction at scale" `Quick test_scaled_work_reduction;
          Alcotest.test_case "reproducibility" `Quick test_reproducibility ] ) ]
