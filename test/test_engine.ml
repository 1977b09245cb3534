(* Tests for the physical engine: every algorithm must agree with the
   reference evaluator (differential testing on random tables), plus
   dedicated tests for the member join, PNHL and assembly operators. *)

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

(* The planner recognizes the Section 6.2 materialization pattern and plans
   it as PNHL instead of per-tuple nested evaluation. *)
let test_pnhl_autoplan () =
  let cfg = { Njq_workload.Generator.default_config with dangling_rate = 0.0 } in
  let cat = Njq_workload.Generator.catalog cfg in
  let q = Njq_workload.Queries.materialize_parts_query in
  let plan = Planner.plan q in
  (match plan with
   | Plan.Pnhl { attr = "parts_supplied"; into = "parts_supplied";
                 right = Plan.Scan "PART"; _ } -> ()
   | p -> Alcotest.failf "expected a PNHL plan, got %a" Plan.pp p);
  Alcotest.check Util.value "pnhl plan result" (Eval.run cat q) (Exec.run cat plan);
  (* and it does far less parameter-evaluation work *)
  let work f =
    Metrics.reset_counters ();
    ignore (f ());
    List.fold_left (fun acc (_, v) -> acc + v) 0 (Metrics.counter_snapshot ())
  in
  let nested = work (fun () -> Eval.run cat q) in
  let pnhl = work (fun () -> Exec.run cat plan) in
  Alcotest.(check bool)
    (Printf.sprintf "pnhl %d << nested %d" pnhl nested)
    true (pnhl * 4 < nested)

(* With no memory budget the planned PNHL keeps its build table as one
   resident segment, however large the extent; a budget segments (and
   spills) it, with the same result. *)
let test_pnhl_planner_budget () =
  let cfg =
    { Njq_workload.Generator.default_config with
      parts = 5000; suppliers = 500; deliveries = 50; dangling_rate = 0.0 }
  in
  let cat = Njq_workload.Generator.catalog cfg in
  let q = Njq_workload.Queries.materialize_parts_query in
  let run () =
    Metrics.reset_counters ();
    let v = Exec.run cat (Planner.plan ~cat q) in
    (v, Metrics.get "spill_part", Metrics.get "pnhl_partition")
  in
  let v, spills, segments = run () in
  Alcotest.(check int) "no spill without a budget" 0 spills;
  Alcotest.(check int) "one resident segment" 1 segments;
  let module Memory = Njq_engine.Memory in
  let prev = !Memory.budget in
  Fun.protect
    ~finally:(fun () -> Memory.budget := prev)
    (fun () ->
      Memory.budget := 1000;
      let v', spills', segments' = run () in
      Alcotest.check Util.value "same value under a budget" v v';
      Alcotest.(check int) "ceil(5000/1000) segments" 5 segments';
      Alcotest.(check int) "each segment spilled" 5 spills')

(* ---------------- Assembly ---------------- *)

let test_assembly () =
  let cfg = { Njq_workload.Generator.default_config with dangling_rate = 0.0 } in
  let cat = Njq_workload.Generator.catalog cfg in
  let plan =
    Plan.Assembly
      { cls = "SUPPLIER"; ref_attr = "supplier"; into = "supplier_obj";
        input = Plan.Scan "DELIVERY" }
  in
  let expected =
    Eval.run cat
      (map_ "d" (table "DELIVERY")
         (except (var "d")
            [ ("supplier_obj", deref "SUPPLIER" (var "d" $. "supplier")) ]))
  in
  Alcotest.check Util.value "assembly materializes references" expected
    (Exec.run cat plan)

(* Error paths: assembly must fail loudly on dangling references and non-oid reference attributes, and [set_rows]
   must invalidate the lazy oid index so later derefs see the new extent. *)

let ref_row_type =
  Vtype.TTuple [ ("part", Vtype.TRef "PART"); ("tag", Vtype.TString) ]

let ref_catalog rows =
  let cat = Util.small_catalog () in
  Catalog.add_table cat ~name:"REF" ~row_type:ref_row_type rows;
  cat

let assemble_refs cat =
  Exec.run cat
    (Plan.Assembly
       { cls = "PART"; ref_attr = "part"; into = "part_obj";
         input = Plan.Scan "REF" })

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
          prop_member_join; prop_member_nestjoin; prop_structural_ops ] );
      ( "planner",
        [ Alcotest.test_case "key extraction" `Quick test_key_extraction ] );
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
