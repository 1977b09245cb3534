(* Fusion-boundary differential tests (DESIGN.md section 8).

   The executor runs every streaming edge ([Plan.streams_output]) as one
   fused batched loop.  Fusion must not be observable: a plan's rows,
   their order and its work-counter totals are exactly those of the same
   plan with every intermediate result materialized
   ([Util.materialize_edges]).  Covered here: the paper workload's
   rewritten plans and random rewritten plans; test_batch.ml checks its
   fixed fused plans the same way. *)

open Njq_adl
module Metrics = Njq_obs.Metrics
open Dsl
module Gen = Njq_workload.Generator
module Queries = Njq_workload.Queries
module Strategy = Njq_core.Strategy
module Exec = Njq_engine.Exec
module Planner = Njq_engine.Planner

let snapshot = Alcotest.(list (pair string int))
let row_list = Alcotest.(list Util.value)

let run_fused cat plan =
  Metrics.reset_counters ();
  let rows = Exec.rows cat plan in
  (rows, Metrics.counter_snapshot ())

let test_workload_fused_vs_materialized () =
  let cat = Gen.catalog { (Gen.scaled ~seed:7 48) with Gen.dangling_rate = 0.0 } in
  List.iter
    (fun (q : Queries.query) ->
      let plan = Planner.plan (Strategy.optimize cat (Queries.to_adl q)) in
      let rows, counters = run_fused cat plan in
      let m_rows, m_counters = Util.run_materialized cat plan in
      let name = q.Queries.id in
      Alcotest.check row_list (name ^ ": rows (and their order)") m_rows rows;
      Alcotest.check snapshot (name ^ ": counter totals") m_counters counters)
    (Queries.all @ Queries.extended)

let prop_fused_vs_materialized =
  Util.qcheck ~count:150 "pipelined executor matches materializing"
    Util.arbitrary_xy_pred_and_tables
    (fun (pred, tables) ->
      let cat = Util.xy_catalog tables in
      let plan = Planner.plan (Strategy.optimize cat (select "x" (table "X") pred)) in
      Util.same_run
        (Util.outcome (fun () -> Util.run_materialized cat plan))
        (Util.outcome (fun () -> run_fused cat plan)))

let () =
  Alcotest.run "fusion"
    [ ( "workload",
        [ Alcotest.test_case "corpus plans match materializing" `Quick
            test_workload_fused_vs_materialized ] );
      ("properties", [ prop_fused_vs_materialized ]) ]
