(* The executor's differential suite (DESIGN.md section 8).

   There is one executor, batched push; its only knobs are the batch size
   ([Batch.size]) and the pool size.  An execution mode here is one
   (batch size, domains) pair.  The contract under test:

   - values: every plan's canonical result equals the reference
     evaluator's ([Eval.run]) on the ADL it implements — the corpus
     query, or a hand-written ADL twin of a hand-built plan;
   - modes: rows, their order and work-counter totals at batch sizes 1,
     3 and 64 (singleton batches and ragged tails) and at 1, 2 and 4
     domains are exactly those of the same plan at the default size 256
     on one domain;
   - fusion: the fixed plans' rows, their order and counter totals are
     exactly those of the same plan with every intermediate result
     materialized ([Util.materialize_edges]; test_fusion.ml checks the
     corpus and random plans the same way).

   Covered: the whole paper workload, fixed fused plans over the batch
   operators, parallel plans, and random rewritten plans. *)

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
module Batch = Njq_engine.Batch

let with_batch_size n f =
  let prev = !Batch.size in
  Batch.size := n;
  Fun.protect ~finally:(fun () -> Batch.size := prev) f

let with_domains k f =
  let prev = Pool.domains () in
  Pool.set_domains k;
  Fun.protect ~finally:(fun () -> Pool.set_domains prev) f

let snapshot = Alcotest.(list (pair string int))
let row_list = Alcotest.(list Util.value)

let run_rows cat plan =
  Metrics.reset_counters ();
  let rows = Exec.rows cat plan in
  (rows, Metrics.counter_snapshot ())

(* The reference mode: the default batch size on one domain. *)
let reference cat plan =
  with_domains 1 (fun () -> with_batch_size 256 (fun () -> run_rows cat plan))

(* Check that [plan]'s value is [Eval.run] of [adl], and that every mode
   in [domains] x [sizes] reproduces the reference mode's rows (in order)
   and counter totals. *)
let check_plan ?(sizes = [ 1; 3; 64 ]) ?(domains = [ 1 ]) name cat ~adl plan =
  let ref_rows, ref_counters = reference cat plan in
  Alcotest.check Util.value (name ^ ": value = Eval") (Eval.run cat adl)
    (Value.set ref_rows);
  List.iter
    (fun k ->
      with_domains k (fun () ->
          List.iter
            (fun bs ->
              with_batch_size bs (fun () ->
                  let rows, counters = run_rows cat plan in
                  let tag = Printf.sprintf "%s [%d domains, size %d]" name k bs in
                  Alcotest.check row_list (tag ^ ": rows (and their order)")
                    ref_rows rows;
                  Alcotest.check snapshot (tag ^ ": counter totals")
                    ref_counters counters))
            sizes))
    domains

(* ------------------------------------------------------------------ *)
(* Paper workload: every corpus query, optimized and planned. *)

let test_workload_modes_agree () =
  let cat = Gen.catalog { (Gen.scaled ~seed:7 48) with Gen.dangling_rate = 0.0 } in
  List.iter
    (fun (q : Queries.query) ->
      let adl = Queries.to_adl q in
      let plan = Planner.plan (Strategy.optimize cat adl) in
      check_plan q.Queries.id cat ~adl plan)
    (Queries.all @ Queries.extended)

(* ------------------------------------------------------------------ *)
(* Fixed fused plans covering the batch operators: filters comparing
   against int/float/string constants, the single-key hash join
   specialization, semi/anti/outer joins, set ops through the shared
   dedup selection, nestjoin grouping, renames, and a breaker (sort) fed by a
   batched input.  Every probing join runs through one match-and-emit
   loop, so each probe (hash with one key and with two, nested loops,
   index, member over a build and over the oid index) appears with each
   join kind it serves, over a filtered left input; unnest and the
   pointer-based materialize appear with the dedup their inputs need.  Each comes with the ADL it
   implements. *)

let price_above k p = gt (var p $. "price") (int k)

let chain_adl =
  project [ "oid"; "pp" ]
    (map_ "p"
       (select "p" (table "PART") (price_above 5 "p"))
       (tuple
          [ ("oid", var "p" $. "oid");
            ("pp", mul (var "p" $. "price") (int 2));
            ("color", var "p" $. "color") ]))

let probe_pred = eq (var "d" $. "supplier") (var "s" $. "soid")
let live_delivery = ge (count (var "d" $. "supply")) (int 0)

let supplier_keys_body =
  tuple [ ("soid", var "s" $. "oid"); ("sname", var "s" $. "sname") ]

(* Suppliers named below "s3": a residual that leaves some deliveries
   without a match. *)
let early_supplier = lt (var "s" $. "sname") (str "s3")

let probe_adl ?residual kind =
  let pred = Option.fold ~none:probe_pred ~some:(( &&& ) probe_pred) residual in
  Expr.Join
    { kind; xvar = "d"; yvar = "s"; pred;
      left = select "d" (table "DELIVERY") live_delivery;
      right = map_ "s" (table "SUPPLIER") supplier_keys_body }

(* The catalog the fixed plans run on, with the index the index joins
   probe. *)
let supplier_oid_index = "supplier_oid"

let fused_catalog () =
  let cat = Gen.catalog { (Gen.scaled ~seed:1 64) with Gen.dangling_rate = 0.0 } in
  ignore
    (Catalog.create_index cat ~name:supplier_oid_index ~table:"SUPPLIER"
       ~kind:Catalog.Hash_index ~attrs:[ "oid" ] ());
  cat

let fused_plans () =
  let chain =
    Plan.ProjectOp
      ( [ "oid"; "pp" ],
        Plan.MapOp
          { morsel = false; var = "p";
            body =
              tuple
                [ ("oid", var "p" $. "oid");
                  ("pp", mul (var "p" $. "price") (int 2));
                  ("color", var "p" $. "color") ];
            input =
              Plan.Filter
                { morsel = false;
                  var = "p"; pred = price_above 5 "p"; input = Plan.Scan "PART" } } )
  in
  (* A string comparison in a conjunction: the selection vector narrows
     with the conjunction's per-row short-circuit. *)
  let str_pred =
    eq (var "p" $. "color") (str "red") &&& lt (var "p" $. "price") (int 9)
  in
  let str_filter =
    Plan.Filter { morsel = false; var = "p"; pred = str_pred; input = Plan.Scan "PART" }
  in
  (* Comparing an int attribute against a string constant: a rank
     comparison, answered as Eval answers it. *)
  let rank_pred = lt (var "p" $. "price") (str "zzz") in
  let mixed_rank =
    Plan.Filter { morsel = false;
                  var = "p"; pred = rank_pred; input = Plan.Scan "PART" }
  in
  let probe ?(residual = Expr.true_) algo kind =
    Plan.JoinOp
      { algo; kind; xvar = "d"; yvar = "s";
        keys = [ (var "d" $. "supplier", var "s" $. "soid") ];
        residual;
        left =
          Plan.Filter
            { morsel = false;
              var = "d"; pred = live_delivery; input = Plan.Scan "DELIVERY" };
        right =
          Plan.MapOp
            { morsel = false;
              var = "s"; body = supplier_keys_body; input = Plan.Scan "SUPPLIER" } }
  in
  (* Multi-key join: takes the KTbl path rather than the single-key
     specialization. *)
  let two_key_body = tuple [ ("k", var "q" $. "oid"); ("kc", var "q" $. "color") ] in
  let two_key =
    Plan.JoinOp
      { algo = Plan.Hash; kind = Expr.Inner; xvar = "a"; yvar = "b";
        keys =
          [ (var "a" $. "oid", var "b" $. "k");
            (var "a" $. "color", var "b" $. "kc") ];
        residual = Expr.true_; left = Plan.Scan "PART";
        right = Plan.MapOp { morsel = false;
                             var = "q"; body = two_key_body; input = Plan.Scan "PART" } }
  in
  let two_key_adl =
    join ~x:"a" ~y:"b"
      (eq (var "a" $. "oid") (var "b" $. "k")
       &&& eq (var "a" $. "color") (var "b" $. "kc"))
      (table "PART")
      (map_ "q" (table "PART") two_key_body)
  in
  let red p = eq (var p $. "color") (str "red") in
  let union_plan =
    Plan.UnionOp
      ( Plan.Filter { morsel = false;
                      var = "p"; pred = red "p"; input = Plan.Scan "PART" },
        Plan.Filter { morsel = false;
                      var = "p"; pred = price_above 10 "p"; input = Plan.Scan "PART" } )
  in
  let diff_plan =
    Plan.DiffOp
      ( Plan.Scan "PART",
        Plan.Filter { morsel = false;
                      var = "p"; pred = price_above 5 "p"; input = Plan.Scan "PART" } )
  in
  let nest_pred = eq (var "s" $. "oid") (var "d" $. "supplier") in
  let nest_plan algo =
    Plan.NestjoinOp
      { algo; xvar = "s"; yvar = "d";
        keys = [ (var "s" $. "oid", var "d" $. "supplier") ];
        residual = Expr.true_; body = var "d" $. "date"; attr = "delivered";
        left = Plan.Scan "SUPPLIER"; right = Plan.Scan "DELIVERY" }
  in
  let nest_adl =
    nestjoin ~x:"s" ~y:"d" ~body:(var "d" $. "date") ~attr:"delivered" nest_pred
      (table "SUPPLIER") (table "DELIVERY")
  in
  (* Two-key nestjoin: the KTbl probe under the nestjoin's emit. *)
  let busy_s = gt (count (var "s" $. "parts_supplied")) (int 2)
  and busy_d = ge (count (var "d" $. "supply")) (int 2) in
  let two_key_nest =
    Plan.NestjoinOp
      { algo = Plan.Hash; xvar = "s"; yvar = "d";
        keys = [ (var "s" $. "oid", var "d" $. "supplier"); (busy_s, busy_d) ];
        residual = Expr.true_; body = var "d" $. "date"; attr = "delivered";
        left = Plan.Scan "SUPPLIER"; right = Plan.Scan "DELIVERY" }
  in
  let two_key_nest_adl =
    nestjoin ~x:"s" ~y:"d" ~body:(var "d" $. "date") ~attr:"delivered"
      (nest_pred &&& eq busy_s busy_d)
      (table "SUPPLIER") (table "DELIVERY")
  in
  (* Index joins: each filtered delivery probes SUPPLIER's oid index; the
     fetched suppliers are renamed apart from the delivery's attributes. *)
  let index_join kind =
    Plan.IndexJoin
      { kind; xvar = "d"; yvar = "s"; table = "SUPPLIER"; index = supplier_oid_index;
        keys = [ var "d" $. "supplier" ]; residual = early_supplier;
        rename = [ ("oid", "soid") ];
        left =
          Plan.Filter
            { morsel = false;
              var = "d"; pred = live_delivery; input = Plan.Scan "DELIVERY" } }
  in
  let index_adl kind =
    Expr.Join
      { kind; xvar = "d"; yvar = "s"; pred = probe_pred &&& early_supplier;
        left = select "d" (table "DELIVERY") live_delivery;
        right = Expr.Rename ([ ("oid", "soid") ], table "SUPPLIER") }
  in
  (* Member joins of suppliers (oid renamed apart from PART's) with the
     parts they supply: over a build of the red parts, and over PART's oid
     index.  The element itself is the key, so no row matches twice;
     suppliers with no parts survive the antijoins. *)
  let not_s1 = neq (var "s" $. "sname") (str "s1") in
  let suppliers =
    Plan.Filter
      { morsel = false; var = "s"; pred = not_s1;
        input = Plan.RenameOp ([ ("oid", "soid") ], Plan.Scan "SUPPLIER") }
  in
  let suppliers_adl =
    select "s" (Expr.Rename ([ ("oid", "soid") ], table "SUPPLIER")) not_s1
  in
  let red_parts =
    Plan.Filter { morsel = false; var = "p"; pred = red "p"; input = Plan.Scan "PART" }
  in
  let supplies = mem (var "p" $. "oid") (var "s" $. "parts_supplied") in
  let member kind right =
    Plan.MemberJoin
      { kind; xvar = "s"; yvar = "p"; xset = var "s" $. "parts_supplied";
        elem_var = "z"; elem_key = var "z"; ykey = var "p" $. "oid";
        left = suppliers; right }
  in
  let member_adl kind right =
    match kind with
    | Plan.MSemi -> semijoin ~x:"s" ~y:"p" supplies suppliers_adl right
    | Plan.MAnti -> antijoin ~x:"s" ~y:"p" supplies suppliers_adl right
    | Plan.MInner -> join ~x:"s" ~y:"p" supplies suppliers_adl right
    | Plan.MNest { body; attr } ->
      nestjoin ~x:"s" ~y:"p" ~body ~attr supplies suppliers_adl right
  in
  let member_cases =
    List.concat_map
      (fun (kname, kind) ->
        [ ( "member_" ^ kname ^ "_build",
            member kind (Plan.Build red_parts),
            member_adl kind (select "p" (table "PART") (red "p")) );
          ( "member_" ^ kname ^ "_oid",
            member kind (Plan.Oid_index "PART"),
            member_adl kind (table "PART") ) ])
      [ ("semi", Plan.MSemi); ("anti", Plan.MAnti); ("inner", Plan.MInner);
        ("nest", Plan.MNest { body = var "p" $. "pname"; attr = "pnames" }) ]
  in
  (* Keyed by a field of the element, a delivery's supply entries can
     probe one part twice: the inner join dedups its output and the
     nestjoin each group. *)
  let deliveries =
    Plan.Filter
      { morsel = false; var = "d"; pred = live_delivery;
        input = Plan.RenameOp ([ ("oid", "did") ], Plan.Scan "DELIVERY") }
  in
  let deliveries_adl =
    select "d" (Expr.Rename ([ ("oid", "did") ], table "DELIVERY")) live_delivery
  in
  let by_part kind =
    Plan.MemberJoin
      { kind; xvar = "d"; yvar = "p"; xset = var "d" $. "supply"; elem_var = "z";
        elem_key = var "z" $. "part"; ykey = var "p" $. "oid"; left = deliveries;
        right = Plan.Build red_parts }
  in
  let supplied = exists "z" (var "d" $. "supply") (eq (var "z" $. "part") (var "p" $. "oid")) in
  let red_adl = select "p" (table "PART") (red "p") in
  (* An unnest whose input has no key, and the pointer-based materialize
     (a map over a compiled deref) over one: both dedup. *)
  let supplier_supply =
    Plan.MapOp
      { morsel = false; var = "d";
        body = tuple [ ("supplier", var "d" $. "supplier"); ("supply", var "d" $. "supply") ];
        input = Plan.Scan "DELIVERY" }
  in
  let supplier_supply_adl =
    map_ "d" (table "DELIVERY")
      (tuple [ ("supplier", var "d" $. "supplier"); ("supply", var "d" $. "supply") ])
  in
  let by_supplier =
    except (var "r") [ ("by", Expr.Deref ("SUPPLIER", var "r" $. "supplier")) ]
  in
  let deref_map =
    Plan.MapOp { morsel = false; var = "r"; body = by_supplier; input = supplier_supply }
  in
  let rename_plan =
    Plan.RenameOp
      ( [ ("pname", "part_name") ],
        Plan.Filter { morsel = false;
                      var = "p"; pred = price_above 3 "p"; input = Plan.Scan "PART" } )
  in
  let rename_adl =
    Expr.Rename
      ([ ("pname", "part_name") ], select "p" (table "PART") (price_above 3 "p"))
  in
  let has_parts = ge (count (var "s" $. "parts_supplied")) (int 1) in
  let flatten_plan =
    Plan.FlattenOp
      (Plan.MapOp
         { morsel = false; var = "s"; body = var "s" $. "parts_supplied";
           input =
             Plan.Filter { morsel = false;
                           var = "s"; pred = has_parts; input = Plan.Scan "SUPPLIER" } })
  in
  let flatten_adl =
    flatten
      (map_ "s" (select "s" (table "SUPPLIER") has_parts) (var "s" $. "parts_supplied"))
  in
  let outer = Expr.LeftOuter [ "soid"; "sname" ] in
  [ ("chain", chain, chain_adl);
    ("str_filter", str_filter, select "p" (table "PART") str_pred);
    ("mixed_rank", mixed_rank, select "p" (table "PART") rank_pred);
    ("probe_inner", probe Plan.Hash Expr.Inner, probe_adl Expr.Inner);
    ("probe_semi", probe Plan.Hash Expr.Semi, probe_adl Expr.Semi);
    ("probe_anti", probe Plan.Hash Expr.Anti, probe_adl Expr.Anti);
    ("probe_outer", probe Plan.Hash outer, probe_adl outer);
    ("two_key", two_key, two_key_adl);
    ( "union",
      union_plan,
      union
        (select "p" (table "PART") (red "p"))
        (select "p" (table "PART") (price_above 10 "p")) );
    ( "diff",
      diff_plan,
      diff (table "PART") (select "p" (table "PART") (price_above 5 "p")) );
    ("nest", nest_plan Plan.Hash, nest_adl);
    ("two_key_nest", two_key_nest, two_key_nest_adl);
    ("nl_inner", probe Plan.Nested_loop Expr.Inner, probe_adl Expr.Inner);
    ( "nl_semi",
      probe ~residual:early_supplier Plan.Nested_loop Expr.Semi,
      probe_adl ~residual:early_supplier Expr.Semi );
    ( "nl_anti",
      probe ~residual:early_supplier Plan.Nested_loop Expr.Anti,
      probe_adl ~residual:early_supplier Expr.Anti );
    ( "nl_outer",
      probe ~residual:early_supplier Plan.Nested_loop outer,
      probe_adl ~residual:early_supplier outer );
    ("nl_nest", nest_plan Plan.Nested_loop, nest_adl);
    ("index_inner", index_join Expr.Inner, index_adl Expr.Inner);
    ("index_semi", index_join Expr.Semi, index_adl Expr.Semi);
    ("index_anti", index_join Expr.Anti, index_adl Expr.Anti);
    ( "member_inner_by_part",
      by_part Plan.MInner,
      join ~x:"d" ~y:"p" supplied deliveries_adl red_adl );
    ( "member_nest_by_part",
      by_part (Plan.MNest { body = var "p" $. "pname"; attr = "pnames" }),
      nestjoin ~x:"d" ~y:"p" ~body:(var "p" $. "pname") ~attr:"pnames" supplied
        deliveries_adl red_adl );
    ("unnest", Plan.UnnestOp ("supply", supplier_supply),
     unnest "supply" supplier_supply_adl);
    ("deref_map", deref_map, map_ "r" supplier_supply_adl by_supplier);
    ("rename", rename_plan, rename_adl);
    (* A breaker downstream of batched inputs: sort-merge buffers both
       sides, so batches must materialize correctly at the boundary. *)
    ("sort_join", probe Plan.Sort_merge Expr.Inner, probe_adl Expr.Inner);
    ("flatten", flatten_plan, flatten_adl) ]
  @ member_cases

let test_fused_plans_agree () =
  let cat = fused_catalog () in
  List.iter
    (fun (name, plan, adl) -> check_plan name cat ~adl plan)
    (fused_plans ())

(* The same plans with their fused chains cut at every operator edge. *)
let test_fused_chains_agree () =
  let cat = fused_catalog () in
  List.iter
    (fun (name, plan, _) ->
      let rows, counters = run_rows cat plan in
      let m_rows, m_counters = Util.run_materialized cat plan in
      Alcotest.check row_list (name ^ ": rows (and their order)") m_rows rows;
      Alcotest.check snapshot (name ^ ": counter totals") m_counters counters)
    (fused_plans ())

(* ------------------------------------------------------------------ *)
(* Parallel interop: morsel filters and maps, and the corpus with every
   parallel policy set ([Util.parallel]), at 1/2/4 domains.  A single
   batch size keeps the pool matrix affordable; size 3 guarantees ragged
   tails inside every pool task. *)

let test_parallel_modes_agree () =
  let cat = Gen.catalog { (Gen.scaled ~seed:3 48) with Gen.dangling_rate = 0.0 } in
  let pp_body =
    tuple [ ("oid", var "p" $. "oid"); ("pp", mul (var "p" $. "price") (int 2)) ]
  in
  let par_chain =
    Plan.MapOp
      { var = "p"; body = pp_body; morsel = false;
        input =
          Plan.Filter
            { var = "p"; pred = price_above 5 "p"; input = Plan.Scan "PART";
              morsel = true } }
  in
  let par_map =
    Plan.MapOp
      { var = "p"; body = var "p" $. "pname"; morsel = true;
        input =
          Plan.Filter
            { var = "p"; pred = price_above 2 "p"; input = Plan.Scan "PART";
              morsel = false } }
  in
  let fixed =
    [ ("par_chain", par_chain,
       map_ "p" (select "p" (table "PART") (price_above 5 "p")) pp_body);
      ("par_map", par_map,
       map_ "p" (select "p" (table "PART") (price_above 2 "p")) (var "p" $. "pname")) ]
  in
  let corpus =
    List.map
      (fun (q : Queries.query) ->
        let adl = Queries.to_adl q in
        let seq = Planner.plan (Strategy.optimize cat adl) in
        (q.Queries.id, Util.parallel seq, adl))
      Queries.all
  in
  List.iter
    (fun (name, plan, adl) ->
      check_plan ~sizes:[ 3 ] ~domains:[ 1; 2; 4 ] name cat ~adl plan)
    (fixed @ corpus)

(* Deref paths: EQ1, EQ2 and EQ3.2 read dereferenced attributes through
   the extents' columns.  Each mode starts with fresh oid indexes (the
   same rows set again), so at 2 and 4 domains the morsel tasks build
   and read the columns concurrently; rows, their order and counter
   totals, "oid_lookup" included, must be those of the reference mode. *)

let test_deref_modes_agree () =
  let cat = Gen.catalog { (Gen.scaled ~seed:5 256) with Gen.dangling_rate = 0.0 } in
  let fresh_indexes () =
    List.iter
      (fun t -> Catalog.set_rows cat t (Catalog.rows cat t))
      [ "PART"; "SUPPLIER" ]
  in
  List.iter
    (fun id ->
      let q = List.find (fun (q : Queries.query) -> String.equal q.id id) Queries.all in
      let adl = Queries.to_adl q in
      let plan = Util.parallel (Planner.plan (Strategy.optimize cat adl)) in
      fresh_indexes ();
      let ref_rows, ref_counters = reference cat plan in
      Alcotest.check Util.value (id ^ ": value = Eval") (Eval.run cat adl)
        (Value.set ref_rows);
      Alcotest.(check bool) (id ^ ": dereferences") true
        (List.assoc "oid_lookup" ref_counters > 0);
      List.iter
        (fun k ->
          with_domains k (fun () ->
              List.iter
                (fun bs ->
                  with_batch_size bs (fun () ->
                      fresh_indexes ();
                      let rows, counters = run_rows cat plan in
                      let tag = Printf.sprintf "%s [%d domains, size %d]" id k bs in
                      Alcotest.check row_list (tag ^ ": rows (and their order)")
                        ref_rows rows;
                      Alcotest.check snapshot (tag ^ ": counter totals")
                        ref_counters counters))
                [ 1; 3; 256 ]))
        [ 1; 2; 4 ])
    [ "EQ1"; "EQ2"; "EQ3.2" ]

(* ------------------------------------------------------------------ *)
(* Batch module unit tests: view windows, ragged builder tails,
   selection-vector compaction. *)

let test_batch_views () =
  let rows = Array.init 10 (fun i -> Value.VInt i) in
  (* Windowed views over a shared array reproduce the array. *)
  let got = ref [] in
  let off = ref 0 in
  while !off < Array.length rows do
    let len = min 3 (Array.length rows - !off) in
    Batch.iter (fun v -> got := v :: !got) (Batch.view rows ~off:!off ~len);
    off := !off + len
  done;
  Alcotest.check row_list "view windows cover the array (tail of 1)"
    (Array.to_list rows) (List.rev !got)

let test_batch_builder_tail () =
  with_batch_size 4 (fun () ->
      let emitted = ref [] in
      let bld = Batch.builder (fun b -> emitted := Batch.live b :: !emitted) in
      for i = 1 to 10 do
        Batch.add bld (Value.VInt i)
      done;
      Batch.flush bld;
      Alcotest.(check (list int))
        "builder emits full batches then the ragged tail" [ 2; 4; 4 ]
        !emitted)

let test_batch_selection () =
  let rows = Array.init 8 (fun i -> Value.VInt i) in
  let b = Batch.of_array rows in
  Batch.keep b (fun j -> j mod 2 = 0);
  Alcotest.(check int) "first keep" 4 (Batch.live b);
  (* Second keep compacts the existing selection in place. *)
  Batch.keep_rows b (fun v -> Value.compare v (Value.VInt 2) > 0);
  Alcotest.(check int) "second keep shrinks" 2 (Batch.live b);
  let got = ref [] in
  Batch.iter (fun v -> got := v :: !got) b;
  Alcotest.check row_list "survivors in physical order"
    [ Value.VInt 4; Value.VInt 6 ]
    (List.rev !got)

let test_project_sorted_agrees () =
  let row =
    Value.tuple
      [ ("b", Value.VInt 2); ("a", Value.VInt 1); ("c", Value.VInt 3) ]
  in
  let attrs = [ "c"; "a" ] in
  let sorted = List.sort_uniq String.compare attrs in
  Alcotest.check Util.value "project_sorted matches project"
    (Value.project row attrs)
    (Value.project_sorted row sorted)

(* ------------------------------------------------------------------ *)
(* Properties on random XY predicates and tables.  The first: both the
   rewritten plan and the bare Filter(Scan) (whose predicate the filter
   compiles unrewritten) return Eval's value — or fail where
   Eval fails — and the rewritten plan's rows and counters at a ragged
   batch size are those of the default size.  The second: with one-row
   batches, the rewritten plan's rows, their order and counter totals
   are those of the default size.  (Random plans against their fully
   materialized twins are in test_fusion.ml.) *)

let prop_batch_differential =
  Util.qcheck ~count:150 "batched executor matches Eval and size 256"
    Util.arbitrary_xy_pred_and_tables
    (fun (pred, tables) ->
      let cat = Util.xy_catalog tables in
      let q = select "x" (table "X") pred in
      let want = Util.outcome (fun () -> Eval.run cat q) in
      let agrees plan =
        match want, Util.outcome (fun () -> Exec.run cat plan) with
        | Ok a, Ok b -> Value.equal a b
        | Error (), Error () -> true
        | _ -> false
      in
      let filter = Plan.Filter { morsel = false;
                                 var = "x"; pred; input = Plan.Scan "X" } in
      let plan = Planner.plan (Strategy.optimize cat q) in
      agrees filter && agrees plan
      && (Result.is_error want
         || Util.same_run
              (Util.outcome (fun () -> with_batch_size 3 (fun () -> run_rows cat plan)))
              (Util.outcome (fun () -> run_rows cat plan))))

let prop_row_at_a_time =
  Util.qcheck ~count:150 "batched executor matches row-at-a-time"
    Util.arbitrary_xy_pred_and_tables
    (fun (pred, tables) ->
      let cat = Util.xy_catalog tables in
      let plan = Planner.plan (Strategy.optimize cat (select "x" (table "X") pred)) in
      Util.same_run
        (Util.outcome (fun () -> with_batch_size 1 (fun () -> run_rows cat plan)))
        (Util.outcome (fun () -> run_rows cat plan)))

let () =
  Alcotest.run "batch"
    [ ( "modes",
        [ Alcotest.test_case "workload modes agree" `Quick
            test_workload_modes_agree;
          Alcotest.test_case "fused plans agree (incl. order)" `Quick
            test_fused_plans_agree;
          Alcotest.test_case "fused chains agree (incl. order)" `Quick
            test_fused_chains_agree;
          Alcotest.test_case "parallel interop at 1/2/4 domains" `Quick
            test_parallel_modes_agree;
          Alcotest.test_case "deref paths at 1/2/4 domains" `Quick
            test_deref_modes_agree ] );
      ( "batch module",
        [ Alcotest.test_case "view windows" `Quick test_batch_views;
          Alcotest.test_case "builder ragged tail" `Quick
            test_batch_builder_tail;
          Alcotest.test_case "selection compaction" `Quick test_batch_selection;
          Alcotest.test_case "project_sorted agrees" `Quick
            test_project_sorted_agrees ] );
      ( "properties",
        [ prop_batch_differential; prop_row_at_a_time ] ) ]
