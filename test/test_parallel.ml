(* Tests for the multicore execution layer: the domain pool, the
   planner's parallel policies, and the domain-safety of shared engine
   state.

   The contract under test (DESIGN.md section 7): partition counts are
   fixed in the plan, not derived from the pool, so for a fixed plan both
   the result value and the full counter snapshot are independent of the
   pool size; and with the pool at one domain the planner emits exactly
   the sequential plans it emitted before this layer existed. *)

open Njq_adl
module Metrics = Njq_obs.Metrics
open Dsl
module Gen = Njq_workload.Generator
module Queries = Njq_workload.Queries
module Strategy = Njq_core.Strategy
module Plan = Njq_engine.Plan
module Exec = Njq_engine.Exec
module Planner = Njq_engine.Planner
module Pool = Njq_engine.Pool

let with_domains k f =
  let prev = Pool.domains () in
  Pool.set_domains k;
  Fun.protect ~finally:(fun () -> Pool.set_domains prev) f

let pool_sizes = [ 1; 2; 4 ]
let snapshot = Alcotest.(list (pair string int))

(* Counters of the partitioning passes themselves; everything else must
   agree with the sequential run exactly. *)
let drop_par_counters =
  List.filter (fun (name, _) -> not (List.mem name [ "partition"; "partition_row" ]))

let plan_string p = Fmt.str "%a" Plan.pp p

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* ------------------------------------------------------------------ *)
(* Paper workload: every corpus query, optimized, planned sequentially,
   then run with every parallel policy set at several pool sizes. *)

let test_workload_parallel_matches_sequential () =
  let cat = Gen.catalog { (Gen.scaled ~seed:7 48) with Gen.dangling_rate = 0.0 } in
  List.iter
    (fun (q : Queries.query) ->
      let rewritten = Strategy.optimize cat (Queries.to_adl q) in
      let seq_plan = Planner.plan rewritten in
      Metrics.reset_counters ();
      let expected = Exec.run cat seq_plan in
      let seq_counters = Metrics.counter_snapshot () in
      let par_plan = Util.parallel seq_plan in
      let reference = ref None in
      List.iter
        (fun k ->
          with_domains k (fun () ->
              Metrics.reset_counters ();
              let got = Exec.run cat par_plan in
              let snap = Metrics.counter_snapshot () in
              Alcotest.check Util.value
                (Printf.sprintf "%s value at %d domains" q.Queries.id k)
                expected got;
              Alcotest.check snapshot
                (Printf.sprintf "%s work counters at %d domains" q.Queries.id k)
                seq_counters
                (drop_par_counters snap);
              match !reference with
              | None -> reference := Some snap
              | Some s ->
                Alcotest.check snapshot
                  (Printf.sprintf "%s full snapshot at %d domains" q.Queries.id
                     k)
                  s snap))
        pool_sizes)
    (Queries.all @ Queries.extended)

(* ------------------------------------------------------------------ *)
(* A fixed parallel plan (partitioned semijoin + segmented PNHL, the b12
   shape): identical values and identical full counter snapshots across
   pool sizes, including the partitioning counters. *)

let test_fixed_plan_pool_invariance () =
  let cat =
    Gen.catalog
      { (Gen.scaled ~seed:3 96) with
        Gen.dangling_rate = 0.0;
        Gen.empty_rate = 0.0 }
  in
  let join_plan =
    Plan.JoinOp
      { algo = Plan.Partitioned { partitions = 8; mem_budget = max_int };
        kind = Expr.Semi; xvar = "s"; yvar = "d";
        keys = [ (var "s" $. "oid", var "d" $. "supplier") ];
        residual = Expr.true_; left = Plan.Scan "SUPPLIER";
        right = Plan.Scan "DELIVERY" }
  in
  let pnhl_plan =
    Plan.Pnhl
      { attr = "parts_supplied"; elem_key = var "elem";
        row_key = var "row" $. "oid"; into = "parts_supplied";
        mem_budget = 12; left = Plan.Scan "SUPPLIER";
        right = Plan.Scan "PART" }
  in
  let outcomes =
    List.map
      (fun k ->
        with_domains k (fun () ->
            Metrics.reset_counters ();
            let v =
              Value.set [ Exec.run cat join_plan; Exec.run cat pnhl_plan ]
            in
            (k, v, Metrics.counter_snapshot ())))
      pool_sizes
  in
  match outcomes with
  | [] -> assert false
  | (_, v0, s0) :: rest ->
    List.iter
      (fun (k, v, s) ->
        Alcotest.check Util.value (Printf.sprintf "value at %d domains" k) v0 v;
        Alcotest.check snapshot
          (Printf.sprintf "counter snapshot at %d domains" k)
          s0 s)
      rest

(* ------------------------------------------------------------------ *)
(* Planner gating: with one domain, [plan ~cat] is exactly the sequential
   plan; with two domains and inputs above the threshold it sets the
   parallel policies of the hot operators. *)

(* [plan] with every parallel policy cleared: resident partitioned joins
   and nestjoins back to [Hash], morsel filters and maps back to plain
   ones.  A budgeted partitioned join is not a parallel policy and stays. *)
let rec sequential plan =
  let plan = Plan.with_children plan (List.map sequential (Plan.children plan)) in
  match plan with
  | Plan.JoinOp ({ algo = Plan.Partitioned { mem_budget; _ }; _ } as j)
    when mem_budget = max_int ->
    Plan.JoinOp { j with algo = Plan.Hash }
  | Plan.NestjoinOp ({ algo = Plan.Partitioned { mem_budget; _ }; _ } as j)
    when mem_budget = max_int ->
    Plan.NestjoinOp { j with algo = Plan.Hash }
  | Plan.Filter f -> Plan.Filter { f with morsel = false }
  | Plan.MapOp m -> Plan.MapOp { m with morsel = false }
  | p -> p

(* The catalog passes (join order, access paths, pointer-based member
   joins, which need no declared index) are the other catalog-aware
   choices [plan ~cat] makes: skipped by forcing hash, the one-domain
   catalog plan is the catalog-free sequential plan; run, it is the
   two-domain catalog plan with its parallel policies cleared, so the
   parallel pass changes nothing else (no algorithm, no access path). *)
let test_domains1_plans_identical () =
  let cat = Gen.catalog { (Gen.scaled ~seed:7 300) with Gen.dangling_rate = 0.0 } in
  List.iter
    (fun (q : Queries.query) ->
      let rewritten = Strategy.optimize cat (Queries.to_adl q) in
      let plan_cat () = plan_string (Planner.plan ~cat rewritten) in
      let seq = plan_string (Planner.plan rewritten) in
      let gated =
        with_domains 1 (fun () ->
            plan_string (Planner.plan ~force:Plan.Hash ~cat rewritten))
      in
      Alcotest.(check string) q.Queries.id seq gated;
      let two_domains =
        with_domains 2 (fun () -> plan_string (sequential (Planner.plan ~cat rewritten)))
      in
      Alcotest.(check string)
        (q.Queries.id ^ " with access paths")
        two_domains (with_domains 1 plan_cat))
    (Queries.all @ Queries.extended)

let test_parallelize_applies_above_threshold () =
  let cat = Gen.catalog { (Gen.scaled ~seed:7 300) with Gen.dangling_rate = 0.0 } in
  let rewritten = Strategy.optimize cat (Queries.to_adl (Queries.find "EQ5")) in
  let planned =
    with_domains 2 (fun () -> plan_string (Planner.plan ~cat rewritten))
  in
  Alcotest.(check bool)
    (Printf.sprintf "parallel operator in %s" planned)
    true
    (contains planned "par_");
  (* Below the threshold nothing is rewritten, even with a large pool. *)
  let small = Gen.catalog { (Gen.scaled ~seed:7 16) with Gen.dangling_rate = 0.0 } in
  let rewritten = Strategy.optimize small (Queries.to_adl (Queries.find "EQ5")) in
  let planned =
    with_domains 4 (fun () -> plan_string (Planner.plan ~cat:small rewritten))
  in
  Alcotest.(check bool) "small inputs stay sequential" false
    (contains planned "par_")

(* ------------------------------------------------------------------ *)
(* Domain-safety of shared state: concurrent Value.hash calls against the
   domain-local memo agree with the main domain's hashes. *)

let test_hash_memo_across_domains () =
  let values =
    List.init 64 (fun i ->
        Value.set
          [ Value.int i; Value.set [ Value.int (i * 7); Value.string "x" ] ])
  in
  let expected = List.map Value.hash values in
  let arr = Array.of_list values in
  with_domains 4 (fun () ->
      let got = Pool.run (Array.length arr) (fun i -> Value.hash arr.(i)) in
      List.iteri
        (fun i h -> Alcotest.(check int) (Printf.sprintf "hash %d" i) h got.(i))
        expected)

(* Shrinking the pool joins its surplus workers, so no idle domain stays
   for every later stop-the-world minor collection to wait on; a pool
   grown and run keeps the workers its configuration asks for. *)
let test_shrink_joins_workers () =
  let prev = Pool.domains () in
  Fun.protect ~finally:(fun () -> Pool.set_domains prev) @@ fun () ->
  let run () = ignore (Pool.run 8 (fun i -> i * i)) in
  Pool.set_domains 4;
  run ();
  Alcotest.(check int) "grown to 4 and run" 3 (Pool.live_workers ());
  Pool.set_domains 1;
  Alcotest.(check int) "shrunk to 1" 0 (Pool.live_workers ());
  Pool.set_domains 2;
  run ();
  Alcotest.(check int) "grown to 2 and run" 1 (Pool.live_workers ())

(* ------------------------------------------------------------------ *)
(* Property: random rewritten query plans, with every parallel policy set,
   agree with the sequential engine at every pool size. *)

let prop_parallel_differential =
  Util.qcheck ~count:100 "parallelized plans match the sequential engine"
    Util.arbitrary_xy_pred_and_tables
    (fun (pred, tables) ->
      let cat = Util.xy_catalog tables in
      let q = select "x" (table "X") pred in
      let rewritten = Strategy.optimize cat q in
      let seq_plan = Planner.plan rewritten in
      let expected = Exec.run cat seq_plan in
      let par_plan = Util.parallel seq_plan in
      List.for_all
        (fun k ->
          with_domains k (fun () -> Value.equal expected (Exec.run cat par_plan)))
        [ 2; 4 ])

let () =
  Alcotest.run "parallel"
    [ ( "engine",
        [ Alcotest.test_case "workload parallel matches sequential" `Quick
            test_workload_parallel_matches_sequential;
          Alcotest.test_case "fixed plan pool invariance" `Quick
            test_fixed_plan_pool_invariance;
          Alcotest.test_case "domains=1 plans identical" `Quick
            test_domains1_plans_identical;
          Alcotest.test_case "parallelize above threshold only" `Quick
            test_parallelize_applies_above_threshold;
          Alcotest.test_case "hash memo across domains" `Quick
            test_hash_memo_across_domains;
          Alcotest.test_case "shrinking joins surplus workers" `Quick
            test_shrink_joins_workers ] );
      ("properties", [ prop_parallel_differential ]) ]
