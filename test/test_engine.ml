(* Tests for the physical engine: every algorithm must agree with the
   reference evaluator (differential testing on random tables), plus
   dedicated tests for the member join, PNHL and the pointer-based
   materialize, and the planner's derived plans pinned. *)

open Njq_adl
module Metrics = Njq_obs.Metrics
open Dsl
module Plan = Njq_engine.Plan
module Exec = Njq_engine.Exec
module Planner = Njq_engine.Planner

let join_pred = eq (var "x" $. "a") (var "y" $. "d")

let join_expr kind =
  Expr.Join
    { kind; xvar = "x"; yvar = "y"; pred = join_pred; left = Expr.Table "X";
      right = Expr.Table "Y" }

let all_kinds =
  [ ("inner", Expr.Inner); ("semi", Expr.Semi); ("anti", Expr.Anti);
    ("outer", Expr.LeftOuter [ "d"; "e" ]) ]

(* Differential: hash and nested-loop joins equal the reference evaluator. *)
let prop_join_algos =
  Util.qcheck ~count:150 "join algorithms match reference" Util.arbitrary_xy
    (fun tables ->
      let cat = Util.xy_catalog tables in
      List.for_all
        (fun (_, kind) ->
          let e = join_expr kind in
          let expected = Eval.run cat e in
          let nl = Exec.run cat (Planner.plan ~force:Plan.Nested_loop e) in
          let hash = Exec.run cat (Planner.plan ~force:Plan.Hash e) in
          Value.equal expected nl && Value.equal expected hash)
        all_kinds)

let prop_sort_merge =
  Util.qcheck ~count:150 "sort-merge inner join matches reference" Util.arbitrary_xy
    (fun tables ->
      let cat = Util.xy_catalog tables in
      let e = join_expr Expr.Inner in
      let sm = Exec.run cat (Planner.plan ~force:Plan.Sort_merge e) in
      Value.equal (Eval.run cat e) sm)

let prop_nestjoin_algos =
  Util.qcheck ~count:150 "nestjoin algorithms match reference" Util.arbitrary_xy
    (fun tables ->
      let cat = Util.xy_catalog tables in
      let e =
        nestjoin ~x:"x" ~y:"y" ~attr:"g" ~body:(var "y" $. "e") join_pred
          (table "X") (table "Y")
      in
      let expected = Eval.run cat e in
      let nl = Exec.run cat (Planner.plan ~force:Plan.Nested_loop e) in
      let hash = Exec.run cat (Planner.plan ~force:Plan.Hash e) in
      let sm = Exec.run cat (Planner.plan ~force:Plan.Sort_merge e) in
      Value.equal expected nl && Value.equal expected hash
      && Value.equal expected sm)

let prop_member_join =
  Util.qcheck ~count:150 "member joins match reference" Util.arbitrary_xy
    (fun tables ->
      let cat = Util.xy_catalog tables in
      let shapes kind =
        [ (* quantifier form *)
          Expr.Join
            { kind; xvar = "x"; yvar = "y";
              pred = exists "z" (var "x" $. "c") (eq (var "z") (var "y" $. "e"));
              left = Expr.Table "X"; right = Expr.Table "Y" };
          (* membership form *)
          Expr.Join
            { kind; xvar = "x"; yvar = "y";
              pred = mem (var "y" $. "e") (var "x" $. "c");
              left = Expr.Table "X"; right = Expr.Table "Y" } ]
      in
      List.for_all
        (fun kind ->
          List.for_all
            (fun e ->
              let planned = Planner.plan e in
              (* the planner must pick the member join *)
              let is_member =
                match planned with Plan.MemberJoin _ -> true | _ -> false
              in
              is_member && Value.equal (Eval.run cat e) (Exec.run cat planned))
            (shapes kind))
        [ Expr.Semi; Expr.Anti ])

let prop_member_nestjoin =
  Util.qcheck ~count:150 "member nestjoin matches reference" Util.arbitrary_xy
    (fun tables ->
      let cat = Util.xy_catalog tables in
      let e =
        nestjoin ~x:"x" ~y:"y" ~attr:"g"
          (mem (var "y" $. "e") (var "x" $. "c"))
          (table "X") (table "Y")
      in
      let planned = Planner.plan e in
      (match planned with Plan.MemberJoin { kind = Plan.MNest _; _ } -> true | _ -> false)
      && Value.equal (Eval.run cat e) (Exec.run cat planned))

(* Every algorithm [~force] can name runs every join kind, and the
   nestjoin, as the reference evaluator does: where the executor has no
   path for it (a sort-merge semi-, anti- or outer join, a partitioned
   outer join) the planner falls back to hash. *)
let prop_forced_algos =
  Util.qcheck ~count:100 "forced algorithms match reference on every kind"
    Util.arbitrary_xy (fun tables ->
      let cat = Util.xy_catalog tables in
      let nj =
        nestjoin ~x:"x" ~y:"y" ~attr:"g" ~body:(var "y" $. "e") join_pred
          (table "X") (table "Y")
      in
      List.for_all
        (fun force ->
          List.for_all
            (fun e -> Value.equal (Eval.run cat e) (Exec.run cat (Planner.plan ~force e)))
            (nj :: List.map (fun (_, kind) -> join_expr kind) all_kinds))
        [ Plan.Nested_loop; Plan.Hash; Plan.Sort_merge;
          Plan.Partitioned { partitions = 4; mem_budget = max_int };
          Plan.Partitioned { partitions = 1; mem_budget = 2 } ])

(* Other operators through the planner. *)
let prop_structural_ops =
  Util.qcheck ~count:150 "structural operators match reference" Util.arbitrary_xy
    (fun tables ->
      let cat = Util.xy_catalog tables in
      let exprs =
        [ project [ "a" ] (table "X");
          map_ "x" (table "X") (count (var "x" $. "c"));
          select "y" (table "Y") (gt (var "y" $. "e") (int 2));
          union (project [ "a" ] (table "X")) (project [ "a" ] (table "X"));
          inter (table "Y") (select "y" (table "Y") (gt (var "y" $. "d") (int 1)));
          diff (table "Y") (select "y" (table "Y") (gt (var "y" $. "d") (int 1)));
          flatten (map_ "x" (table "X") (var "x" $. "c"));
          nest ~attrs:[ "e" ] ~into:"es" (table "Y");
          unnest "c" (table "X") ]
      in
      List.for_all
        (fun e -> Value.equal (Eval.run cat e) (Exec.run cat (Planner.plan e)))
        exprs)

(* Key extraction *)
let test_key_extraction () =
  let pred =
    eq (var "x" $. "a") (var "y" $. "d")
    &&& gt (var "y" $. "e") (int 1)
    &&& eq (var "y" $. "e") (var "x" $. "a")
  in
  let keys, residual = Planner.extract_keys "x" "y" pred in
  Alcotest.(check int) "two keys" 2 (List.length keys);
  Alcotest.(check bool) "residual keeps the filter" true
    (match residual with Expr.Cmp (Expr.Gt, _, _) -> true | _ -> false);
  (* keys are oriented left-to-right *)
  List.iter
    (fun (kx, ky) ->
      Alcotest.(check bool) "kx over x" true
        (Analysis.S.subset (Analysis.free_vars kx) (Analysis.S.singleton "x"));
      Alcotest.(check bool) "ky over y" true
        (Analysis.S.subset (Analysis.free_vars ky) (Analysis.S.singleton "y")))
    keys

(* The planner's output, pinned: the derived plan of every corpus query
   and of the Section 6.2 materialization, under every grouping mode with
   and without division, at 1 and 2 domains, with and without a memory
   budget, equals [Eval] and holds neither PNHL nor a join partitioned
   without a budget — the planner partitions a join only for its budget. *)
let test_derived_plans () =
  let module Gen = Njq_workload.Generator in
  let module Queries = Njq_workload.Queries in
  let module Strategy = Njq_core.Strategy in
  let module Pool = Njq_engine.Pool in
  let module Memory = Njq_engine.Memory in
  let cat = Gen.catalog { (Gen.scaled ~seed:5 300) with Gen.dangling_rate = 0.0 } in
  let queries =
    ("materialize", Queries.materialize_parts_query)
    :: List.map
         (fun (q : Queries.query) -> (q.Queries.id, Queries.to_adl q))
         (Queries.all @ Queries.extended)
  in
  let expected = List.map (fun (id, q) -> (id, Eval.run cat q)) queries in
  let options =
    List.concat_map
      (fun grouping_mode ->
        List.map
          (fun enable_division -> { Strategy.grouping_mode; enable_division })
          [ false; true ])
      [ Strategy.Nestjoin_always; Strategy.Flat_join_when_safe; Strategy.Outerjoin ]
  in
  let unwanted (p : Plan.t) =
    match p with
    | Plan.Pnhl _ -> true
    | Plan.JoinOp { algo = Plan.Partitioned { mem_budget; _ }; _ }
    | Plan.NestjoinOp { algo = Plan.Partitioned { mem_budget; _ }; _ } ->
      mem_budget = max_int
    | _ -> false
  in
  let prev_domains = Pool.domains () and prev_budget = !Memory.budget in
  Fun.protect
    ~finally:(fun () ->
      Pool.set_domains prev_domains;
      Memory.budget := prev_budget)
  @@ fun () ->
  List.iter
    (fun (domains, budget) ->
      Pool.set_domains domains;
      Memory.budget := budget;
      List.iter
        (fun options ->
          List.iter
            (fun (id, q) ->
              let name =
                Printf.sprintf "%s at %d domains, budget %d" id domains budget
              in
              let _, plan = Planner.derive ~options cat q in
              Plan.iter_nodes
                (fun node ->
                  if unwanted node then
                    Alcotest.failf "%s: planned %s" name (Plan.node_label node))
                plan;
              Alcotest.check Util.value name (List.assoc id expected)
                (Exec.run cat plan))
            queries)
        options)
    [ (1, max_int); (1, 30); (2, max_int); (2, 30) ]

(* ---------------- PNHL ---------------- *)

(* Reference result for materializing each supplier's parts. *)
let pnhl_plan ~budget =
  Plan.Pnhl
    { attr = "parts_supplied";
      elem_key = var "elem";
      row_key = var "row" $. "oid";
      into = "parts_supplied";
      mem_budget = budget;
      left = Plan.Scan "SUPPLIER";
      right = Plan.Scan "PART" }

let unnest_join_nest_plan () =
  (* The pipeline PNHL is compared against: unnest the attribute, hash-join
     with PART, re-nest.  Loses suppliers with an empty attribute. *)
  Planner.plan
    (nest
       ~attrs:[ "parts_supplied"; "oid_p"; "pname"; "price"; "color" ]
       ~into:"parts"
       (join ~x:"u" ~y:"p"
          (eq (var "u" $. "parts_supplied") (var "p" $. "oid_p"))
          (unnest "parts_supplied" (table "SUPPLIER"))
          (map_ "p" (table "PART")
             (tuple
                [ ("oid_p", var "p" $. "oid"); ("pname", var "p" $. "pname");
                  ("price", var "p" $. "price"); ("color", var "p" $. "color") ]))))

let test_pnhl_correct () =
  let cfg = { Njq_workload.Generator.default_config with dangling_rate = 0.0 } in
  let cat = Njq_workload.Generator.catalog cfg in
  let expected = Eval.run cat Njq_workload.Queries.materialize_parts_query in
  let got = Exec.run cat (pnhl_plan ~budget:1000) in
  Alcotest.check Util.value "pnhl = reference materialization" expected got

let test_pnhl_partitioning_invariant () =
  let cfg = { Njq_workload.Generator.default_config with dangling_rate = 0.0 } in
  let cat = Njq_workload.Generator.catalog cfg in
  let full = Exec.run cat (pnhl_plan ~budget:100000) in
  List.iter
    (fun budget ->
      Metrics.reset_counters ();
      let partitioned = Exec.run cat (pnhl_plan ~budget) in
      Alcotest.check Util.value
        (Printf.sprintf "budget %d gives same result" budget)
        full partitioned;
      let parts = Metrics.get "pnhl_partition" in
      let expected_parts =
        (Catalog.cardinality cat "PART" + budget - 1) / budget
      in
      Alcotest.(check int)
        (Printf.sprintf "partition count at budget %d" budget)
        expected_parts parts)
    [ 1; 7; 16; 64 ]

let test_pnhl_keeps_empty_sets () =
  (* PNHL preserves suppliers with empty parts_supplied; the
     unnest-join-nest pipeline loses them (the PNF caveat of Section 4). *)
  let cfg =
    { Njq_workload.Generator.default_config with
      dangling_rate = 0.0; empty_rate = 0.5 }
  in
  let cat = Njq_workload.Generator.catalog cfg in
  let suppliers = Catalog.cardinality cat "SUPPLIER" in
  let via_pnhl = Value.set_size (Exec.run cat (pnhl_plan ~budget:1000)) in
  let via_ujn = Value.set_size (Exec.run cat (unnest_join_nest_plan ())) in
  Alcotest.(check int) "pnhl keeps all suppliers" suppliers via_pnhl;
  Alcotest.(check bool) "unnest-join-nest drops empty ones" true (via_ujn < suppliers)

(* The planner plans no PNHL of its own.  Unrewritten, the Section 6.2
   materialization is the nested map it is written as (--no-opt's pure
   nested-loop execution); derived, it is the member nestjoin that probes
   PART's oid index, and that does far less work than the nested map. *)
let test_pnhl_autoplan () =
  let cfg = { Njq_workload.Generator.default_config with dangling_rate = 0.0 } in
  let cat = Njq_workload.Generator.catalog cfg in
  let q = Njq_workload.Queries.materialize_parts_query in
  let expected = Eval.run cat q in
  let nested = Planner.plan ~cat q in
  (match nested with
   | Plan.MapOp _ -> ()
   | p -> Alcotest.failf "expected the nested map, got %a" Plan.pp p);
  let _, derived = Planner.derive cat q in
  Plan.iter_nodes
    (function
      | Plan.Pnhl _ -> Alcotest.failf "derived plan holds PNHL: %a" Plan.pp derived
      | _ -> ())
    derived;
  let rec onto_oid_index (p : Plan.t) =
    (match p with
     | Plan.MemberJoin { right = Plan.Oid_index "PART"; _ } -> true
     | _ -> false)
    || List.exists onto_oid_index (Plan.children p)
  in
  Alcotest.(check bool) "derived onto PART's oid index" true (onto_oid_index derived);
  let work f =
    Metrics.reset_counters ();
    let v = f () in
    (v, List.fold_left (fun acc (_, n) -> acc + n) 0 (Metrics.counter_snapshot ()))
  in
  let _, w_nested = work (fun () -> Eval.run cat q) in
  let v_derived, w_derived = work (fun () -> Exec.run cat derived) in
  Alcotest.check Util.value "nested map = Eval" expected (Exec.run cat nested);
  Alcotest.check Util.value "derived plan = Eval" expected v_derived;
  Alcotest.(check bool)
    (Printf.sprintf "derived %d << nested %d" w_derived w_nested)
    true (w_derived * 4 < w_nested)

(* A memory budget leaves the planned materialization as it is: the
   derived plan reads PART through its oid index, so it holds no build
   table to segment or spill, and no PNHL appears under the budget. *)
let test_pnhl_planner_budget () =
  let cfg =
    { Njq_workload.Generator.default_config with
      parts = 5000; suppliers = 500; deliveries = 50; dangling_rate = 0.0 }
  in
  let cat = Njq_workload.Generator.catalog cfg in
  let q = Njq_workload.Queries.materialize_parts_query in
  let run () =
    Metrics.reset_counters ();
    let _, plan = Planner.derive cat q in
    let v = Exec.run cat plan in
    (plan, v, Metrics.get "spill_part", Metrics.get "pnhl_partition")
  in
  let plan, v, spills, segments = run () in
  Alcotest.check Util.value "derived plan = Eval" (Eval.run cat q) v;
  Alcotest.(check int) "no spill without a budget" 0 spills;
  Alcotest.(check int) "no PNHL segment" 0 segments;
  let module Memory = Njq_engine.Memory in
  let prev = !Memory.budget in
  Fun.protect
    ~finally:(fun () -> Memory.budget := prev)
    (fun () ->
      Memory.budget := 1000;
      let plan', v', spills', segments' = run () in
      Alcotest.(check string) "same plan under a budget" (Plan.to_string plan)
        (Plan.to_string plan');
      Alcotest.check Util.value "same value under a budget" v v';
      Alcotest.(check int) "no spill under a budget" 0 spills';
      Alcotest.(check int) "no PNHL segment under a budget" 0 segments')

(* ---------------- Pointer-based materialize ---------------- *)

(* Section 6.2's pointer-based materialize is a map over a compiled
   [deref]: each delivery's supplier reference becomes the supplier object,
   one "oid_lookup" per delivery in SUPPLIER's oid index. *)
let test_assembly () =
  let cfg = { Njq_workload.Generator.default_config with dangling_rate = 0.0 } in
  let cat = Njq_workload.Generator.catalog cfg in
  let q =
    map_ "d" (table "DELIVERY")
      (except (var "d")
         [ ("supplier_obj", deref "SUPPLIER" (var "d" $. "supplier")) ])
  in
  let plan = Planner.plan ~cat q in
  (match plan with
   | Plan.MapOp { input = Plan.Scan "DELIVERY"; _ } -> ()
   | p -> Alcotest.failf "expected a map over DELIVERY, got %a" Plan.pp p);
  let expected = Eval.run cat q in
  Metrics.reset_counters ();
  Alcotest.check Util.value "deref map materializes references" expected
    (Exec.run cat plan);
  Alcotest.(check int) "one oid lookup per delivery"
    (Catalog.cardinality cat "DELIVERY") (Metrics.get "oid_lookup")

(* Error paths: the deref map must fail loudly on dangling references and
   non-oid reference attributes, and [set_rows] must invalidate the lazy
   oid index so later derefs see the new extent. *)

let ref_row_type =
  Vtype.TTuple [ ("part", Vtype.TRef "PART"); ("tag", Vtype.TString) ]

let ref_catalog rows =
  let cat = Util.small_catalog () in
  Catalog.add_table cat ~name:"REF" ~row_type:ref_row_type rows;
  cat

let assemble_refs cat =
  Exec.run cat
    (Planner.plan
       (map_ "r" (table "REF")
          (except (var "r") [ ("part_obj", deref "PART" (var "r" $. "part")) ])))

let check_type_error name f =
  match f () with
  | v -> Alcotest.failf "%s: expected Type_error, got %a" name Value.pp v
  | exception Value.Type_error _ -> ()

let test_assembly_dangling_oid () =
  let cat =
    ref_catalog
      [ Value.tuple [ ("part", Value.oid 1); ("tag", Value.string "ok") ];
        Value.tuple [ ("part", Value.oid 77); ("tag", Value.string "bad") ] ]
  in
  check_type_error "dangling reference #77" (fun () -> assemble_refs cat)

let test_assembly_non_oid_ref () =
  let cat =
    ref_catalog
      [ Value.tuple [ ("part", Value.int 1); ("tag", Value.string "notref") ] ]
  in
  check_type_error "non-oid reference attribute" (fun () -> assemble_refs cat)

let test_assembly_index_invalidation () =
  let cat =
    ref_catalog [ Value.tuple [ ("part", Value.oid 1); ("tag", Value.string "x") ] ]
  in
  (* First run resolves oid 1 and builds the lazy index as a side effect. *)
  ignore (assemble_refs cat);
  (* Rebinding PART without oid 1 must invalidate that index: the same
     plan now sees a dangling reference, not a stale hit. *)
  let keep =
    List.filter
      (fun row -> Value.as_oid (Value.field row "oid") <> 1)
      (Catalog.rows cat "PART")
  in
  Catalog.set_rows cat "PART" keep;
  check_type_error "deref after set_rows invalidation" (fun () ->
      assemble_refs cat);
  (* And restoring the row makes the deref succeed again. *)
  Catalog.set_rows cat "PART"
    (Util.part ~oid:1 ~pname:"bolt" ~price:10 ~color:"red" :: keep);
  Alcotest.(check int) "resolves again after restore" 1
    (List.length (Value.as_set (assemble_refs cat)))

(* Attribute columns: a compiled [deref⟨PART⟩(r.part).color] reads PART's
   column for color, built on the first dereference.  [set_rows] must drop
   it with the oid index: a rerun reads the changed value, and a dropped
   row is a dangling reference again. *)

let ref_colors = map_ "r" (table "REF") (deref "PART" (var "r" $. "part") $. "color")

let run_map cat adl = Exec.run cat (Planner.plan adl)

let test_column_invalidation () =
  let cat =
    ref_catalog
      [ Value.tuple [ ("part", Value.oid 1); ("tag", Value.string "x") ];
        Value.tuple [ ("part", Value.oid 3); ("tag", Value.string "y") ] ]
  in
  Alcotest.check Util.value "column built" (Value.set [ Value.string "red" ])
    (run_map cat ref_colors);
  let parts = Catalog.rows cat "PART" in
  Catalog.set_rows cat "PART"
    (Util.part ~oid:1 ~pname:"bolt" ~price:10 ~color:"green"
    :: List.filter
         (fun row ->
           match Value.as_oid (Value.field row "oid") with
           | 1 | 3 -> false
           | _ -> true)
         parts);
  Catalog.set_rows cat "REF"
    [ Value.tuple [ ("part", Value.oid 1); ("tag", Value.string "x") ] ];
  Alcotest.check Util.value "new value read" (Value.set [ Value.string "green" ])
    (run_map cat ref_colors);
  Catalog.set_rows cat "REF"
    [ Value.tuple [ ("part", Value.oid 3); ("tag", Value.string "y") ] ];
  Alcotest.check_raises "dropped row dangles"
    (Value.Type_error "dangling reference #3 into PART") (fun () ->
      ignore (run_map cat ref_colors))

(* An extent whose oid stops being a key: the member join planned onto its
   oid index falls back to a build, and deref paths read the row the
   reference evaluator reads, both as [Eval] does. *)
let test_oid_key_lost () =
  let cat =
    ref_catalog
      [ Value.tuple [ ("part", Value.oid 1); ("tag", Value.string "x") ];
        Value.tuple [ ("part", Value.oid 2); ("tag", Value.string "y") ] ]
  in
  let eq6 =
    Njq_workload.Queries.to_adl
      (List.find
         (fun (q : Njq_workload.Queries.query) -> String.equal q.id "EQ6")
         Njq_workload.Queries.all)
  in
  let eq6_plan = Planner.plan ~cat (Njq_core.Strategy.optimize cat eq6) in
  let rec onto_oid_index (p : Plan.t) =
    (match p with
     | Plan.MemberJoin { right = Plan.Oid_index "PART"; _ } -> true
     | _ -> false)
    || List.exists onto_oid_index (Plan.children p)
  in
  Alcotest.(check bool) "planned onto PART's oid index" true
    (onto_oid_index eq6_plan);
  ignore (run_map cat ref_colors);
  Alcotest.(check bool) "oid is a key" true (Catalog.oid_key cat "PART");
  Catalog.set_rows cat "PART"
    (Util.part ~oid:1 ~pname:"bolt" ~price:10 ~color:"blue"
    :: Catalog.rows cat "PART");
  Alcotest.(check bool) "oid is no longer a key" false
    (Catalog.oid_key cat "PART");
  Alcotest.check Util.value "deref path = Eval" (Eval.run cat ref_colors)
    (run_map cat ref_colors);
  Alcotest.check Util.value "member join = Eval" (Eval.run cat eq6)
    (Exec.run cat eq6_plan)

(* Counters sanity: hash joins do fewer pair tests than nested loops. *)
let test_hash_beats_nl_on_counters () =
  let cat =
    Njq_workload.Generator.catalog (Njq_workload.Generator.scaled ~seed:3 128)
  in
  let e =
    semijoin ~x:"d" ~y:"s"
      (eq (var "d" $. "supplier") (var "s" $. "oid"))
      (table "DELIVERY") (table "SUPPLIER")
  in
  let count_for force key =
    Metrics.reset_counters ();
    ignore (Exec.run cat (Planner.plan ~force e));
    Metrics.get key
  in
  let nl_pairs = count_for Plan.Nested_loop "nl_pair" in
  let probes = count_for Plan.Hash "hash_probe" in
  Alcotest.(check bool)
    (Printf.sprintf "probes (%d) < nl pairs (%d)" probes nl_pairs)
    true
    (probes < nl_pairs)

let () =
  Alcotest.run "engine"
    [ ( "differential",
        [ prop_join_algos; prop_sort_merge; prop_nestjoin_algos;
          prop_forced_algos; prop_member_join; prop_member_nestjoin;
          prop_structural_ops ] );
      ( "planner",
        [ Alcotest.test_case "key extraction" `Quick test_key_extraction;
          Alcotest.test_case "derived plans" `Quick test_derived_plans ] );
      ( "pnhl",
        [ Alcotest.test_case "correctness" `Quick test_pnhl_correct;
          Alcotest.test_case "partitioning invariant" `Quick test_pnhl_partitioning_invariant;
          Alcotest.test_case "keeps empty sets" `Quick test_pnhl_keeps_empty_sets;
          Alcotest.test_case "planner auto-PNHL" `Quick test_pnhl_autoplan;
          Alcotest.test_case "planner budget" `Quick test_pnhl_planner_budget ] );
      ( "assembly",
        [ Alcotest.test_case "pointer materialization" `Quick test_assembly;
          Alcotest.test_case "dangling oid raises" `Quick
            test_assembly_dangling_oid;
          Alcotest.test_case "non-oid ref_attr raises" `Quick
            test_assembly_non_oid_ref;
          Alcotest.test_case "set_rows invalidates oid index" `Quick
            test_assembly_index_invalidation;
          Alcotest.test_case "set_rows invalidates attribute columns" `Quick
            test_column_invalidation;
          Alcotest.test_case "oid stops being a key" `Quick test_oid_key_lost ] );
      ( "counters",
        [ Alcotest.test_case "hash beats nested loop" `Quick test_hash_beats_nl_on_counters ] ) ]
