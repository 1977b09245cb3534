(* Tests for the cost model and cost-based planning: estimates are sane and
   monotone, and planning with a catalog (whose join-order enumeration
   prices algorithms and operand orders) picks hash algorithms where keys
   exist, puts the build side on the smaller operand, and never changes
   semantics. *)

open Njq_adl
open Dsl
module Plan = Njq_engine.Plan
module Planner = Njq_engine.Planner
module Cost = Njq_engine.Cost
module Exec = Njq_engine.Exec
module Gen = Njq_workload.Generator

(* A catalog with two tables of very different sizes for build-side tests. *)
let skewed_catalog ~small ~big =
  let cat = Catalog.create () in
  let row_a n = Value.tuple [ ("a", Value.int n); ("va", Value.int (n * 2)) ] in
  let row_b n = Value.tuple [ ("b", Value.int n); ("vb", Value.int (n * 3)) ] in
  Catalog.add_table cat ~name:"SMALL"
    ~row_type:(Vtype.tuple [ ("a", Vtype.TInt); ("va", Vtype.TInt) ])
    (List.init small row_a);
  Catalog.add_table cat ~name:"BIG"
    ~row_type:(Vtype.tuple [ ("b", Vtype.TInt); ("vb", Vtype.TInt) ])
    (List.init big row_b);
  cat

let inner_join left right =
  join ~x:"x" ~y:"y" (eq (var "x" $. "a") (var "y" $. "b")) left right

let test_rows_out_sanity () =
  let cat = skewed_catalog ~small:10 ~big:1000 in
  Alcotest.(check (float 0.01)) "scan is exact" 10.0
    (Cost.rows_out cat (Plan.Scan "SMALL"));
  Alcotest.(check (float 0.01)) "big scan is exact" 1000.0
    (Cost.rows_out cat (Plan.Scan "BIG"));
  let filtered =
    Plan.Filter
      { morsel = false;
        var = "x"; pred = eq (var "x" $. "a") (int 1); input = Plan.Scan "BIG" }
  in
  let est = Cost.rows_out cat filtered in
  Alcotest.(check bool) "filter shrinks" true (est < 1000.0 && est > 0.0)

let test_selectivity_shapes () =
  let s = Cost.selectivity in
  Alcotest.(check bool) "eq < range" true
    (s (eq (var "a") (int 1)) < s (lt (var "a") (int 1)));
  Alcotest.(check bool) "and multiplies" true
    (s (eq (var "a") (int 1) &&& eq (var "b") (int 1)) < s (eq (var "a") (int 1)));
  Alcotest.(check bool) "or adds" true
    (s (eq (var "a") (int 1) ||| eq (var "b") (int 1)) > s (eq (var "a") (int 1)));
  Alcotest.(check (float 0.0001)) "true is 1" 1.0 (s (bool true));
  Alcotest.(check (float 0.0001)) "not inverts" 0.9 (s (not_ (eq (var "a") (int 1))))

let test_cost_prefers_hash () =
  let cat = skewed_catalog ~small:100 ~big:100 in
  let e = inner_join (table "SMALL") (table "BIG") in
  match Planner.plan ~cat e with
  | Plan.JoinOp { algo = Plan.Hash; _ } -> ()
  | p -> Alcotest.failf "expected a hash join, got %a" Plan.pp p

let test_build_side_swap () =
  let cat = skewed_catalog ~small:4 ~big:4000 in
  (* SMALL join BIG: the executor builds on the right operand, so the
     catalog plan must put SMALL on the right. *)
  let e = inner_join (table "SMALL") (table "BIG") in
  (match Planner.plan ~cat e with
   | Plan.JoinOp { algo = Plan.Hash; right = Plan.Scan "SMALL"; left = Plan.Scan "BIG"; _ } ->
     ()
   | p -> Alcotest.failf "expected swapped build side, got %a" Plan.pp p);
  (* And with the sizes flipped, no swap happens. *)
  let e2 =
    join ~x:"y" ~y:"x" (eq (var "y" $. "b") (var "x" $. "a")) (table "BIG")
      (table "SMALL")
  in
  match Planner.plan ~cat e2 with
  | Plan.JoinOp { algo = Plan.Hash; right = Plan.Scan "SMALL"; _ } -> ()
  | p -> Alcotest.failf "expected build side kept, got %a" Plan.pp p

let test_swap_preserves_semantics () =
  let cat = skewed_catalog ~small:5 ~big:50 in
  let e = inner_join (table "SMALL") (table "BIG") in
  let auto = Exec.run cat (Planner.plan e) in
  let catalog = Exec.run cat (Planner.plan ~cat e) in
  Alcotest.check Util.value "swap preserves semantics" auto catalog

let test_cost_monotone_in_algo () =
  let cat = skewed_catalog ~small:200 ~big:200 in
  let mk algo =
    Plan.JoinOp
      { algo; kind = Expr.Inner; xvar = "x"; yvar = "y";
        keys = [ (var "x" $. "a", var "y" $. "b") ]; residual = Expr.true_;
        left = Plan.Scan "SMALL"; right = Plan.Scan "BIG" }
  in
  Alcotest.(check bool) "hash < sort-merge < nested loop" true
    (Cost.cost cat (mk Plan.Hash) < Cost.cost cat (mk Plan.Sort_merge)
     && Cost.cost cat (mk Plan.Sort_merge) < Cost.cost cat (mk Plan.Nested_loop))

(* Cost-based planning is always sound on the paper corpus and on random
   nested predicates. *)
let test_cost_based_corpus () =
  let cat = Gen.catalog { Gen.default_config with dangling_rate = 0.0 } in
  List.iter
    (fun (q : Njq_workload.Queries.query) ->
      let adl = Njq_workload.Queries.to_adl q in
      let out = Njq_core.Strategy.optimize cat adl in
      Alcotest.check Util.value (q.id ^ " cost-based sound")
        (Eval.run cat adl)
        (Exec.run cat (Planner.plan ~cat out)))
    Njq_workload.Queries.all

let prop_cost_based_sound =
  Util.qcheck ~count:150 "cost-based planning preserves semantics"
    Util.arbitrary_xy_pred_and_tables
    (fun (pred, tables) ->
      let cat = Util.xy_catalog tables in
      let q = select "x" (table "X") pred in
      let out = Njq_core.Strategy.optimize cat q in
      Value.equal (Eval.run cat q)
        (Exec.run cat (Planner.plan ~cat out)))

let () =
  Alcotest.run "cost"
    [ ( "estimation",
        [ Alcotest.test_case "rows_out sanity" `Quick test_rows_out_sanity;
          Alcotest.test_case "selectivity shapes" `Quick test_selectivity_shapes;
          Alcotest.test_case "algorithm ordering" `Quick test_cost_monotone_in_algo ] );
      ( "planning",
        [ Alcotest.test_case "prefers hash" `Quick test_cost_prefers_hash;
          Alcotest.test_case "build-side swap" `Quick test_build_side_swap;
          Alcotest.test_case "swap preserves semantics" `Quick test_swap_preserves_semantics;
          Alcotest.test_case "corpus soundness" `Quick test_cost_based_corpus ] );
      ("properties", [ prop_cost_based_sound ]) ]
