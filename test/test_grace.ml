(* Tests for the Grace-style partitioned hash join (a hash join whose
   partition count the memory budget decides): equivalence with the
   in-memory hash join across memory budgets and join kinds, partition
   accounting, and guard rails. *)

open Njq_adl
module Metrics = Njq_obs.Metrics
open Dsl
module Plan = Njq_engine.Plan
module Exec = Njq_engine.Exec
module Planner = Njq_engine.Planner

let grace ~kind ~budget left right =
  Plan.JoinOp
    { algo = Plan.Partitioned { partitions = 1; mem_budget = budget }; kind;
      xvar = "x"; yvar = "y"; keys = [ (var "x" $. "a", var "y" $. "d") ];
      residual = Expr.true_; left; right }

let logical kind =
  Expr.Join
    { kind; xvar = "x"; yvar = "y";
      pred = eq (var "x" $. "a") (var "y" $. "d"); left = Expr.Table "X";
      right = Expr.Table "Y" }

let test_matches_hash_join () =
  let cat = Njq_workload.Generator.xy_catalog ~seed:12 96 in
  List.iter
    (fun kind ->
      let expected = Eval.run cat (logical kind) in
      List.iter
        (fun budget ->
          let got =
            Exec.run cat (grace ~kind ~budget (Plan.Scan "X") (Plan.Scan "Y"))
          in
          Alcotest.check Util.value
            (Printf.sprintf "%s at budget %d" (Plan.kind_name kind) budget)
            expected got)
        [ 1; 7; 32; 1000 ])
    [ Expr.Inner; Expr.Semi; Expr.Anti ]

let test_partition_count () =
  let cat = Njq_workload.Generator.xy_catalog ~seed:12 64 in
  Metrics.reset_counters ();
  ignore (Exec.run cat (grace ~kind:Expr.Inner ~budget:16 (Plan.Scan "X") (Plan.Scan "Y")));
  Alcotest.(check int) "ceil(64/16) partitions" 4 (Metrics.get "partition");
  Alcotest.(check int) "each row partitioned once" 128
    (Metrics.get "partition_row")

let test_guards () =
  let cat = Njq_workload.Generator.xy_catalog ~seed:12 8 in
  Alcotest.check_raises "outer join rejected"
    (Exec.Exec_error "partitioned join does not support outer joins") (fun () ->
      ignore
        (Exec.run cat
           (grace ~kind:(Expr.LeftOuter [ "d"; "e" ]) ~budget:4 (Plan.Scan "X")
              (Plan.Scan "Y"))));
  Alcotest.check_raises "zero budget rejected"
    (Exec.Exec_error "partitioned join: memory budget must be positive") (fun () ->
      ignore
        (Exec.run cat
           (grace ~kind:Expr.Inner ~budget:0 (Plan.Scan "X") (Plan.Scan "Y"))));
  (* A hash table needs an equi key: running a keyless [Hash] join or
     nestjoin is an error (no planner path emits one). *)
  let keyless = "hash join without equi keys" in
  Alcotest.check_raises "keyless hash join rejected" (Exec.Exec_error keyless)
    (fun () ->
      ignore
        (Exec.run cat
           (Plan.JoinOp
              { algo = Plan.Hash; kind = Expr.Inner; xvar = "x"; yvar = "y";
                keys = []; residual = Expr.true_; left = Plan.Scan "X";
                right = Plan.Scan "Y" })));
  Alcotest.check_raises "keyless hash nestjoin rejected" (Exec.Exec_error keyless)
    (fun () ->
      ignore
        (Exec.run cat
           (Plan.NestjoinOp
              { algo = Plan.Hash; xvar = "x"; yvar = "y"; keys = [];
                residual = Expr.true_; body = var "y" $. "e"; attr = "g";
                left = Plan.Scan "X"; right = Plan.Scan "Y" })))

(* Anti join: left rows in partitions with no right rows must survive. *)
let test_anti_dangling_partitions () =
  let cat = Catalog.create () in
  Catalog.add_table cat ~name:"X"
    ~row_type:(Vtype.tuple [ ("a", Vtype.TInt) ])
    (List.init 20 (fun i -> Value.tuple [ ("a", Value.int i) ]));
  Catalog.add_table cat ~name:"Y"
    ~row_type:(Vtype.tuple [ ("d", Vtype.TInt) ])
    [ Value.tuple [ ("d", Value.int 0) ] ];
  let kind = Expr.Anti in
  let expected = Eval.run cat (logical kind) in
  Alcotest.(check int) "19 dangling rows" 19 (Value.set_size expected);
  let got = Exec.run cat (grace ~kind ~budget:1 (Plan.Scan "X") (Plan.Scan "Y")) in
  Alcotest.check Util.value "anti join across partitions" expected got

(* Key skew: a hot key keeps its partition past twice the budget, so that
   partition is split again with the next depth's salt, until it holds
   the hot key alone.  The re-split rows are spilled and joined like the
   first pass's: same value as the resident join at every pool size, the
   same counters at every pool size, and no file left behind. *)
let test_skew_resplit () =
  let cat = Catalog.create () in
  let table name attr keys =
    Catalog.add_table cat ~name
      ~row_type:(Vtype.tuple [ (attr, Vtype.TInt); (attr ^ "_i", Vtype.TInt) ])
      (List.mapi
         (fun i k -> Value.tuple [ (attr, Value.int k); (attr ^ "_i", Value.int i) ])
         keys)
  in
  table "X" "a" (List.init 40 (fun i -> i mod 20));
  table "Y" "d" (List.init 24 (fun _ -> 0) @ List.init 24 (fun i -> i + 1));
  let expected = Eval.run cat (logical Expr.Inner) in
  let plan = grace ~kind:Expr.Inner ~budget:4 (Plan.Scan "X") (Plan.Scan "Y") in
  let runs =
    List.map
      (fun domains ->
        Njq_engine.Pool.set_domains domains;
        Fun.protect ~finally:(fun () -> Njq_engine.Pool.set_domains 1) @@ fun () ->
        Metrics.reset_counters ();
        let got = Exec.run cat plan in
        Alcotest.check Util.value (Fmt.str "skewed join at %d domains" domains) expected got;
        Alcotest.(check int) "no spill file left" 0 (Njq_engine.Rowcodec.live_spills ());
        Metrics.counter_snapshot ())
      [ 1; 2; 4 ]
  in
  let first = List.hd runs in
  Alcotest.(check bool) "hot partition split again (past ceil(48/4) partitions)" true
    (List.assoc "partition" first > 12);
  List.iter (Alcotest.(check (list (pair string int))) "counters across pool sizes" first) runs

let prop_grace_differential =
  Util.qcheck ~count:150 "grace join matches reference" Util.arbitrary_xy
    (fun tables ->
      let cat = Util.xy_catalog tables in
      List.for_all
        (fun kind ->
          let expected = Eval.run cat (logical kind) in
          List.for_all
            (fun budget ->
              Value.equal expected
                (Exec.run cat
                   (grace ~kind ~budget (Plan.Scan "X") (Plan.Scan "Y"))))
            [ 1; 3 ])
        [ Expr.Inner; Expr.Semi; Expr.Anti ])

let () =
  Alcotest.run "grace"
    [ ( "grace join",
        [ Alcotest.test_case "matches hash join" `Quick test_matches_hash_join;
          Alcotest.test_case "partition count" `Quick test_partition_count;
          Alcotest.test_case "guards" `Quick test_guards;
          Alcotest.test_case "anti join dangling partitions" `Quick
            test_anti_dangling_partitions;
          Alcotest.test_case "skewed key split again" `Quick test_skew_resplit ] );
      ("properties", [ prop_grace_differential ]) ]
