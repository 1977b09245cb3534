(* Tests for table statistics and their effect on cardinality estimates. *)

open Njq_adl
open Dsl
module Stats = Njq_engine.Stats
module Cost = Njq_engine.Cost
module Plan = Njq_engine.Plan

let fixed_catalog () =
  let cat = Catalog.create () in
  let row a b = Value.tuple [ ("a", Value.int a); ("b", Value.string b) ] in
  Catalog.add_table cat ~name:"T"
    ~row_type:(Vtype.tuple [ ("a", Vtype.TInt); ("b", Vtype.TString) ])
    [ row 1 "x"; row 1 "y"; row 2 "x"; row 3 "x"; row 4 "z" ];
  cat

let test_analyze () =
  let st = Stats.analyze (fixed_catalog ()) in
  Alcotest.(check (option int)) "cardinality" (Some 5) (Stats.cardinality st "T");
  Alcotest.(check (option int)) "ndv a" (Some 4) (Stats.ndv st ~table:"T" ~attr:"a");
  Alcotest.(check (option int)) "ndv b" (Some 3) (Stats.ndv st ~table:"T" ~attr:"b");
  (match Stats.column st ~table:"T" ~attr:"a" with
   | Some c ->
     Alcotest.(check (option int)) "lo" (Some 1) c.Stats.lo;
     Alcotest.(check (option int)) "hi" (Some 4) c.Stats.hi
   | None -> Alcotest.fail "missing column stats");
  Alcotest.(check (option int)) "unknown column" None
    (Stats.ndv st ~table:"T" ~attr:"zzz")

(* [cached] after a catalog change re-analyzes only the tables that
   changed: an unrelated [add_table] keeps the untouched table's records
   (physically), [set_rows] renews the changed table's. *)
let test_cached_per_table () =
  let cat = fixed_catalog () in
  let same_record what a b =
    match a, b with
    | Some a, Some b -> Alcotest.(check bool) what true (a == b)
    | _ -> Alcotest.fail (what ^ ": missing column stats")
  in
  let st = Stats.cached cat in
  let t_a = Stats.column st ~table:"T" ~attr:"a" in
  Catalog.add_table cat ~name:"U"
    ~row_type:(Vtype.tuple [ ("c", Vtype.TInt) ])
    [ Value.tuple [ ("c", Value.int 7) ] ];
  let st' = Stats.cached cat in
  Alcotest.(check (option int)) "new table analyzed" (Some 1)
    (Stats.cardinality st' "U");
  same_record "untouched table keeps its stats" t_a
    (Stats.column st' ~table:"T" ~attr:"a");
  let u_c = Stats.column st' ~table:"U" ~attr:"c" in
  let row a b = Value.tuple [ ("a", Value.int a); ("b", Value.string b) ] in
  Catalog.set_rows cat "T" [ row 1 "x"; row 9 "y" ];
  let st'' = Stats.cached cat in
  Alcotest.(check (option int)) "changed cardinality" (Some 2)
    (Stats.cardinality st'' "T");
  Alcotest.(check (option int)) "changed ndv" (Some 2)
    (Stats.ndv st'' ~table:"T" ~attr:"a");
  same_record "other table keeps its stats" u_c
    (Stats.column st'' ~table:"U" ~attr:"c");
  let st_r = Stats.cached ~refresh:true cat in
  Alcotest.(check bool) "refresh rescans every table" false
    (Option.get (Stats.column st_r ~table:"U" ~attr:"c") == Option.get u_c)

let test_eq_selectivity () =
  let st = Stats.analyze (fixed_catalog ()) in
  Alcotest.(check (option (float 0.001))) "1/ndv" (Some 0.25)
    (Stats.eq_selectivity st ~table:"T" ~attr:"a")

(* Estimated cardinalities under statistics land within a small factor of
   the truth for equality filters and equi joins on generated data. *)
let test_estimate_accuracy () =
  let cat = Njq_workload.Generator.xy_catalog ~seed:33 256 in
  let st = Stats.analyze cat in
  let check_accuracy name plan actual =
    let est = Cost.rows_out ~stats:st cat plan in
    let ratio = (est +. 1.0) /. (float_of_int actual +. 1.0) in
    if ratio < 0.2 || ratio > 5.0 then
      Alcotest.failf "%s: estimate %.1f vs actual %d (ratio %.2f)" name est
        actual ratio
  in
  (* equality filter: X rows with a given key *)
  let filter =
    Plan.Filter
      { morsel = false;
        var = "x"; pred = eq (var "x" $. "a") (int 17); input = Plan.Scan "X" }
  in
  let actual_filter =
    Value.set_size
      (Eval.run cat (select "x" (table "X") (eq (var "x" $. "a") (int 17))))
  in
  check_accuracy "equality filter" filter actual_filter;
  (* equi join X.a = Y.d *)
  let join_plan =
    Plan.JoinOp
      { algo = Plan.Hash; kind = Expr.Inner; xvar = "x"; yvar = "y";
        keys = [ (var "x" $. "a", var "y" $. "d") ]; residual = Expr.true_;
        left = Plan.Scan "X"; right = Plan.Scan "Y" }
  in
  let actual_join =
    Value.set_size
      (Eval.run cat
         (join ~x:"x" ~y:"y" (eq (var "x" $. "a") (var "y" $. "d")) (table "X")
            (table "Y")))
  in
  check_accuracy "equi join" join_plan actual_join

(* Statistics never change plan SEMANTICS, only cost numbers: planning
   with the catalog's stats still agrees with the reference. *)
let test_stats_cost_planning () =
  let cat = Njq_workload.Generator.xy_catalog ~seed:9 64 in
  let q =
    select "x" (table "X")
      (exists "y" (table "Y") (eq (var "x" $. "a") (var "y" $. "d")))
  in
  let out = Njq_core.Strategy.optimize cat q in
  let plan = Njq_engine.Planner.plan ~cat out in
  Alcotest.check Util.value "cost-based with stats sound" (Eval.run cat q)
    (Njq_engine.Exec.run cat plan)

let () =
  Alcotest.run "stats"
    [ ( "statistics",
        [ Alcotest.test_case "analyze" `Quick test_analyze;
          Alcotest.test_case "cached re-analyzes changed tables" `Quick
            test_cached_per_table;
          Alcotest.test_case "eq selectivity" `Quick test_eq_selectivity;
          Alcotest.test_case "estimate accuracy" `Quick test_estimate_accuracy;
          Alcotest.test_case "cost planning" `Quick test_stats_cost_planning ] ) ]
