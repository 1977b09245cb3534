(* Larger-than-memory execution: rowcodec round trips, spill-file hygiene
   under mid-operator exceptions, NJQC binary catalog round trips, and
   budget-differential equivalence of the spilling operators (partitioned
   joins and nestjoins, PNHL) and of sort-merge across budgets, partition
   counts and domain counts. *)

open Njq_adl
module Metrics = Njq_obs.Metrics
open Dsl
module Plan = Njq_engine.Plan
module Exec = Njq_engine.Exec
module Memory = Njq_engine.Memory
module Rowcodec = Njq_engine.Rowcodec

(* ------------------------------------------------------------------ *)
(* Rowcodec *)

(* Random values biased toward the codec's edge cases: extreme ints
   (zigzag of min_int/max_int), non-finite floats, arbitrary-byte strings
   (interning), dates, oids, VNull, and VSet/VTuple nesting. *)
let gen_codec_value : Value.t QCheck.Gen.t =
  let open QCheck.Gen in
  let atom =
    oneof
      [ return Value.VNull;
        map Value.bool bool;
        map Value.int
          (oneof [ int; oneofl [ min_int; max_int; min_int + 1; -1; 0; 1 ] ]);
        map Value.float
          (oneofl
             [ 0.0; -0.0; 1.5; -3.25e300; 4.9e-324; infinity; neg_infinity ]);
        map Value.string (string_size (int_range 0 12));
        map Value.date (int_range 0 99991231);
        map Value.oid (oneof [ int_range 0 1_000_000; oneofl [ 0; max_int ] ])
      ]
  in
  sized @@ fix (fun self n ->
      if n = 0 then atom
      else
        frequency
          [ (3, atom);
            (1, map Value.set (list_size (int_range 0 4) (self (n / 2))));
            (1,
             map
               (fun vs ->
                 Value.tuple
                   (List.mapi (fun i v -> (Printf.sprintf "f%d" i, v)) vs))
               (list_size (int_range 0 3) (self (n / 2)))) ])

let prop_rowcodec_roundtrip =
  Util.qcheck ~count:300 "rowcodec round trip"
    (QCheck.make
       QCheck.Gen.(list_size (int_range 0 20) gen_codec_value)
       ~print:(Fmt.str "%a" (Fmt.Dump.list Value.pp)))
    (fun rows ->
      let enc = Rowcodec.encoder () in
      let buf = Buffer.create 256 in
      List.iter (fun v -> ignore (Rowcodec.encode_record enc buf v)) rows;
      let dec = Rowcodec.decoder (Buffer.contents buf) in
      let rec drain acc =
        match Rowcodec.decode_record dec with
        | Some v -> drain (v :: acc)
        | None -> List.rev acc
      in
      let back = drain [] in
      List.length back = List.length rows
      && List.for_all2 Value.equal rows back)

let test_spill_roundtrip () =
  (* Enough rows to append several 64 KiB chunks before the seal. *)
  let n = 20_000 in
  let rows =
    List.init n (fun i ->
        Value.tuple
          [ ("k", Value.int i); ("v", Value.string (string_of_int i)) ])
  in
  let sp = Rowcodec.spill_create ~prefix:"njq-test" () in
  List.iter (fun r -> ignore (Rowcodec.spill_add sp r)) rows;
  Alcotest.(check int) "rows counted" n (Rowcodec.spill_rows sp);
  Alcotest.(check bool) "bytes counted" true
    (Rowcodec.spill_bytes sp > 2 * 65536);
  Alcotest.(check (list Util.value)) "write order preserved" rows
    (Rowcodec.spill_read sp);
  Rowcodec.spill_remove sp;
  Rowcodec.spill_remove sp;
  (* idempotent *)
  Alcotest.(check bool) "file unlinked" false
    (Sys.file_exists (Rowcodec.spill_path sp));
  Alcotest.(check int) "unregistered" 0 (Rowcodec.live_spills ());
  (* Once removed, the temp name is free: a file created under it later
     (another spill, maybe another process) survives the stale handle. *)
  Out_channel.with_open_bin (Rowcodec.spill_path sp) (fun _ -> ());
  Rowcodec.spill_remove sp;
  Alcotest.(check bool) "a reused name survives a stale remove" true
    (Sys.file_exists (Rowcodec.spill_path sp));
  Sys.remove (Rowcodec.spill_path sp)

(* ------------------------------------------------------------------ *)
(* Temp-file hygiene: an exception in the middle of a spilling join must
   leave no files behind (operator Fun.protect cleanup, not the at_exit
   sweep). *)

let test_hygiene_on_exception () =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "njq-spill-test-%d" (Unix.getpid ()))
  in
  (try Unix.mkdir dir 0o700 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Unix.putenv "NJQ_TMPDIR" dir;
  Fun.protect
    ~finally:(fun () ->
      (* "" falls back to the system temp dir (see Rowcodec.temp_dir). *)
      Unix.putenv "NJQ_TMPDIR" "";
      Array.iter
        (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
        (Sys.readdir dir);
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () ->
      Alcotest.(check string) "budget redirects spills" dir
        (Rowcodec.temp_dir ());
      let cat = Catalog.create () in
      Catalog.add_table cat ~name:"X"
        ~row_type:(Vtype.tuple [ ("a", Vtype.TInt) ])
        (List.init 24 (fun i -> Value.tuple [ ("a", Value.int i) ]));
      Catalog.add_table cat ~name:"Y"
        ~row_type:(Vtype.tuple [ ("d", Vtype.TInt) ])
        (List.init 24 (fun i -> Value.tuple [ ("d", Value.int i) ]));
      (* The residual dereferences a missing attribute, so the join raises
         after the partition files have been written. *)
      let bad =
        Plan.JoinOp
          { algo = Plan.Partitioned { partitions = 1; mem_budget = 2 };
            kind = Expr.Inner; xvar = "x"; yvar = "y";
            keys = [ (var "x" $. "a", var "y" $. "d") ];
            residual = eq (var "x" $. "missing") (int 0);
            left = Plan.Scan "X"; right = Plan.Scan "Y" }
      in
      (match Exec.run cat bad with
       | _ -> Alcotest.fail "expected the residual to raise"
       | exception (Value.Type_error _ | Exec.Exec_error _) -> ());
      Alcotest.(check int) "no live spills" 0 (Rowcodec.live_spills ());
      Alcotest.(check (array string)) "tmpdir swept" [||] (Sys.readdir dir))

(* ------------------------------------------------------------------ *)
(* NJQC binary catalog *)

let test_njqc_roundtrip () =
  let cat = Util.small_catalog () in
  Catalog.ensure_oid_above cat 100;
  let path = Filename.temp_file "njq-test-cat" ".njqc" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Rowcodec.save_catalog cat path;
      Alcotest.(check bool) "magic recognized" true (Rowcodec.is_njqc path);
      let cat' = Rowcodec.load_catalog path in
      Alcotest.(check (list string)) "tables" (Catalog.table_names cat)
        (Catalog.table_names cat');
      List.iter
        (fun t ->
          Alcotest.check Util.vtype (t ^ " row type") (Catalog.row_type cat t)
            (Catalog.row_type cat' t);
          Alcotest.(check (list Util.value)) (t ^ " rows") (Catalog.rows cat t)
            (Catalog.rows cat' t))
        (Catalog.table_names cat);
      (* The oid counter survives (probe-and-store, matching the textual
         format), so reloaded catalogs never hand out stale identifiers. *)
      Alcotest.(check bool) "oid counter preserved" true
        (Catalog.fresh_oid cat' >= 100))

let test_njqc_corrupt () =
  let path = Filename.temp_file "njq-test-bad" ".njqc" in
  let rejects what contents =
    Out_channel.with_open_bin path (fun oc ->
        Out_channel.output_string oc contents);
    match Rowcodec.load_catalog path with
    | _ -> Alcotest.failf "expected Corrupt for %s" what
    | exception Rowcodec.Corrupt _ -> ()
  in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      rejects "an overlong varint"
        (Rowcodec.njqc_magic ^ "\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff");
      (* A one-table file; its oid counter and table count are one varint
         byte each. *)
      let one = Catalog.create () in
      Catalog.add_table one ~name:"DELIVERY"
        ~row_type:(Vtype.tuple [ ("a", Vtype.TInt) ])
        [ Value.tuple [ ("a", Value.int 1) ] ];
      Rowcodec.save_catalog one path;
      let bytes = In_channel.with_open_bin path In_channel.input_all in
      let m = String.length Rowcodec.njqc_magic + 2 in
      Alcotest.(check char) "one table" '\001' bytes.[m - 1];
      let header = String.sub bytes 0 (m - 1) in
      let table = String.sub bytes m (String.length bytes - m) in
      rejects "a header listing DELIVERY twice"
        (header ^ "\002" ^ table ^ table);
      (* name, row type, no rows, an empty section *)
      rejects "a scalar row type" (header ^ "\001\008DELIVERY\003int\000\000");
      Alcotest.(check bool) "missing file is not njqc" false
        (Rowcodec.is_njqc "njq__no_such_file"))

(* ------------------------------------------------------------------ *)
(* Memory budget parsing *)

let test_parse_budget () =
  let check name exp s =
    Alcotest.(check (option int)) name exp (Memory.parse s)
  in
  check "plain" (Some 4096) "4096";
  check "k suffix" (Some 1024) "1k";
  check "K suffix" (Some 2048) "2K";
  check "m suffix" (Some (3 * 1024 * 1024)) "3m";
  check "trimmed" (Some 7) " 7 ";
  check "zero" None "0";
  check "negative" None "-5";
  check "garbage" None "12q";
  check "empty" None ""

(* ------------------------------------------------------------------ *)
(* Planner: an over-budget hash join is partitioned by the budget and
   spills. *)

let test_planner_converts () =
  let cat = Njq_workload.Generator.xy_catalog ~seed:3 64 in
  let q =
    Expr.Join
      { kind = Expr.Inner; xvar = "x"; yvar = "y";
        pred = eq (var "x" $. "a") (var "y" $. "d"); left = Expr.Table "X";
        right = Expr.Table "Y" }
  in
  let prev = !Memory.budget in
  Fun.protect
    ~finally:(fun () -> Memory.budget := prev)
    (fun () ->
      Memory.budget := 8;
      let plan = Njq_engine.Planner.plan ~cat q in
      let rec has_grace = function
        | Plan.JoinOp { algo = Plan.Partitioned { mem_budget; _ }; _ } ->
          mem_budget = 8
        | p -> List.exists has_grace (Plan.children p)
      in
      Alcotest.(check bool) "hash join partitioned by the budget" true
        (has_grace plan);
      Metrics.reset_counters ();
      let v = Exec.run cat plan in
      let spill_part = Metrics.get "spill_part" in
      let spill_bytes = Metrics.get "spill_bytes" in
      Memory.budget := prev;
      let expected = Exec.run cat (Njq_engine.Planner.plan ~cat q) in
      Alcotest.check Util.value "same result as unlimited" expected v;
      Alcotest.(check bool) "spill partitions ticked" true (spill_part > 0);
      Alcotest.(check bool) "spill bytes ticked" true (spill_bytes > 0))

(* ------------------------------------------------------------------ *)
(* Budget differential: partitioned joins and nestjoins, on one key and on
   two, at 1 and 4 partitions, PNHL and sort-merge give the resident
   result at every budget, at 1/2/4 domains, with counter totals that do
   not depend on the domain count. *)

let xy_keys = [ (var "x" $. "a", var "y" $. "d") ]
let xy_pred = eq (var "x" $. "a") (var "y" $. "d")

(* A second key, so a partition pair hashes an ordered key array rather
   than the key value: big sets on the left meet big [e] on the right. *)
let big_x = gt (count (var "x" $. "c")) (int 3)
let big_y = gt (var "y" $. "e") (int 5)
let xy_keys2 = xy_keys @ [ (big_x, big_y) ]
let xy_pred2 = xy_pred &&& eq big_x big_y

(* Each join family, with one key and with two, as a plan over its
   algorithm, with its ADL. *)
let families =
  List.concat_map
    (fun (suffix, keys, pred) ->
      [ ( "join" ^ suffix,
          (fun algo ->
            Plan.JoinOp
              { algo; kind = Expr.Inner; xvar = "x"; yvar = "y"; keys;
                residual = Expr.true_; left = Plan.Scan "X"; right = Plan.Scan "Y" }),
          Expr.Join
            { kind = Expr.Inner; xvar = "x"; yvar = "y"; pred;
              left = Expr.Table "X"; right = Expr.Table "Y" } );
        ( "nestjoin" ^ suffix,
          (fun algo ->
            Plan.NestjoinOp
              { algo; xvar = "x"; yvar = "y"; keys; residual = Expr.true_;
                body = var "y" $. "e"; attr = "g"; left = Plan.Scan "X";
                right = Plan.Scan "Y" }),
          Expr.Nestjoin
            { xvar = "x"; yvar = "y"; pred; body = var "y" $. "e";
              attr = "g"; left = Expr.Table "X"; right = Expr.Table "Y" } ) ])
    [ ("", xy_keys, xy_pred); (" 2-key", xy_keys2, xy_pred2) ]

let partitioned ~partitions mem_budget = Plan.Partitioned { partitions; mem_budget }

let pnhl_plan budget =
  Plan.Pnhl
    { attr = "parts_supplied"; elem_key = var "elem";
      row_key = var "row" $. "oid"; into = "parts_supplied";
      mem_budget = budget; left = Plan.Scan "SUPPLIER";
      right = Plan.Scan "PART" }

let smj_plan =
  Plan.JoinOp
    { algo = Plan.Sort_merge; kind = Expr.Inner; xvar = "x"; yvar = "y";
      keys = [ (var "x" $. "a", var "y" $. "d") ]; residual = Expr.true_;
      left = Plan.Scan "X"; right = Plan.Scan "Y" }

let test_budget_differential () =
  let xy = Njq_workload.Generator.xy_catalog ~seed:77 64 in
  (* The join families run on 64 rows at one partition, and on 24 rows at
     one and four: there the 4-partition plans partition differently from
     the 1-partition ones at every budget (ceil(24/10) = 3 < 4), where on
     64 rows both budgets set the partition count alone. *)
  let xy24 = Njq_workload.Generator.xy_catalog ~seed:77 24 in
  let sp = Njq_workload.Generator.catalog (Njq_workload.Generator.scaled ~seed:5 48) in
  (* (label, catalog, plan by algorithm, expected value, partition counts) *)
  let cases =
    List.concat_map
      (fun (n, cat, partition_counts) ->
        List.map
          (fun (name, plan, adl) ->
            let label = Fmt.str "%s %s" name n in
            let v = Eval.run cat adl in
            Alcotest.check Util.value (label ^ " hash = Eval") v
              (Exec.run cat (plan Plan.Hash));
            (label, cat, plan, v, partition_counts))
          families)
      [ ("n64", xy, [ 1 ]); ("n24", xy24, [ 1; 4 ]) ]
  in
  let expected_pnhl = Exec.run sp (pnhl_plan max_int) in
  let expected_smj = Exec.run xy smj_plan in
  (* Counter totals of each partitioned variant at the first domain count. *)
  let totals = Hashtbl.create 16 in
  Fun.protect
    ~finally:(fun () -> Njq_engine.Pool.set_domains 1)
    (fun () ->
      List.iter
        (fun domains ->
          Njq_engine.Pool.set_domains domains;
          List.iter
            (fun budget ->
              List.iter
                (fun (label, cat, plan, expected, partition_counts) ->
                  List.iter
                    (fun partitions ->
                      let tag = Fmt.str "%s p%d b%d" label partitions budget in
                      Metrics.reset_counters ();
                      let got =
                        Exec.run cat (plan (partitioned ~partitions budget))
                      in
                      let snap = Metrics.counter_snapshot () in
                      Alcotest.check Util.value
                        (Fmt.str "%s d%d" tag domains)
                        expected got;
                      match Hashtbl.find_opt totals tag with
                      | None -> Hashtbl.add totals tag snap
                      | Some s ->
                        Alcotest.(check (list (pair string int)))
                          (Fmt.str "%s counters at d%d" tag domains)
                          s snap)
                    partition_counts)
                cases;
              Alcotest.check Util.value
                (Fmt.str "pnhl d%d b%d" domains budget)
                expected_pnhl
                (Exec.run sp (pnhl_plan budget));
              let prev = !Memory.budget in
              Memory.budget := budget;
              Fun.protect
                ~finally:(fun () -> Memory.budget := prev)
                (fun () ->
                  Alcotest.check Util.value
                    (Fmt.str "sort-merge d%d b%d" domains budget)
                    expected_smj (Exec.run xy smj_plan)))
            [ max_int; 10; 1 ])
        [ 1; 2; 4 ])

(* Sort-merge has no build table for a budget to bound: under the engine
   budget it sorts its resident inputs in memory and writes no file. *)
let test_sort_merge_resident () =
  let xy = Njq_workload.Generator.xy_catalog ~seed:77 64 in
  let expected = Exec.run xy smj_plan in
  let prev = !Memory.budget in
  Fun.protect
    ~finally:(fun () -> Memory.budget := prev)
    (fun () ->
      Memory.budget := 10;
      Metrics.reset_counters ();
      Alcotest.check Util.value "resident rows" expected (Exec.run xy smj_plan);
      Alcotest.(check int) "nothing spilled" 0 (Metrics.get "spill_part");
      Alcotest.(check int) "no live spill files" 0 (Rowcodec.live_spills ()))

let prop_spill_differential =
  Util.qcheck ~count:100 "spilling operators match in-memory"
    Util.arbitrary_xy (fun tables ->
      let cat = Util.xy_catalog tables in
      let smj_expected = Exec.run cat smj_plan in
      List.for_all
        (fun (_, plan, adl) ->
          let expected = Exec.run cat (plan Plan.Hash) in
          Value.equal expected (Eval.run cat adl)
          && List.for_all
               (fun (partitions, b) ->
                 Value.equal expected
                   (Exec.run cat (plan (partitioned ~partitions b))))
               [ (1, 10); (1, 1); (4, 10); (4, 1) ])
        families
      && List.for_all
        (fun b ->
          let prev = !Memory.budget in
          Memory.budget := b;
          Fun.protect
            ~finally:(fun () -> Memory.budget := prev)
            (fun () -> Value.equal smj_expected (Exec.run cat smj_plan)))
        [ 10; 1 ])

let () =
  Alcotest.run "spill"
    [ ( "rowcodec",
        [ Alcotest.test_case "spill file round trip" `Quick
            test_spill_roundtrip;
          Alcotest.test_case "hygiene on exception" `Quick
            test_hygiene_on_exception ] );
      ( "njqc",
        [ Alcotest.test_case "catalog round trip" `Quick test_njqc_roundtrip;
          Alcotest.test_case "corrupt rejected" `Quick test_njqc_corrupt ] );
      ( "budget",
        [ Alcotest.test_case "parse" `Quick test_parse_budget;
          Alcotest.test_case "planner converts over-budget hash join" `Quick
            test_planner_converts;
          Alcotest.test_case "differential across budgets and domains" `Quick
            test_budget_differential;
          Alcotest.test_case "sort-merge sorts in memory" `Quick
            test_sort_merge_resident ] );
      ( "properties",
        [ prop_rowcodec_roundtrip; prop_spill_differential ] ) ]
