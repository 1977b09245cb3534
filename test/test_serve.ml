(* Tests for the serving layer (DESIGN.md section 12).

   The contract under test: a prepared template executed as a K-way
   set-oriented batch ([Serve.exec_batch]) returns, per invocation, a
   result bit-identical to running that invocation alone
   ([Serve.exec_one]) — for K in {1,4,16,64} at 1/2/4 pool domains —
   and the in-process concurrent driver
   routes every client's replies correctly.  Alongside: serve derives
   its plans the way the CLI does (closed subqueries hoisted), the plan
   cache keys on exact text, epoch invalidation when the catalog changes
   under a configured pool, and the query log's flush-on-exit hook.

   The qlog fork test must run before anything spawns domains (the pool,
   the serve driver): forking a process that owns live domains would
   leave the child's at_exit pool shutdown joining threads that do not
   exist in the child.  It is therefore the first suite. *)

open Njq_adl
module Serve = Njq_engine.Serve
module Plancache = Njq_engine.Plancache
module Planner = Njq_engine.Planner
module Exec = Njq_engine.Exec
module Pool = Njq_engine.Pool
module Strategy = Njq_core.Strategy
module Qlog = Njq_obs.Qlog

let translate text =
  fst (Njq_oosql.Translate.query_string Njq_workload.Queries.schema text)

let with_domains k f =
  let prev = Pool.domains () in
  Pool.set_domains k;
  Fun.protect ~finally:(fun () -> Pool.set_domains prev) f

(* ------------------------------------------------------------------ *)
(* Qlog flush-on-exit (must stay first: forks before domains exist)    *)
(* ------------------------------------------------------------------ *)

let sample_event =
  { Qlog.ts_ns = 1;
    query_hash = Qlog.hash_hex "select p from p in PART";
    fingerprint = "feedfacefeedface";
    cache = "hit";
    rows = 3;
    work = [ ("scan_row", 4) ];
    work_total = 4;
    minor_words = 0.0;
    major_words = 0.0;
    wall_ns = 1000;
    cpu_ns = 900;
    queue_ns = 250;
    batch = 4;
    max_qerror = 1.0;
    spilled = 0;
    slow = false }

let test_qlog_flush_on_exit () =
  let path = Filename.temp_file "njq_serve_qlog" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      match Unix.fork () with
      | 0 ->
        (* Child: log without ever calling [close], then exit normally.
           The sink's at_exit hook must flush the buffered line.  Stdio
           goes to /dev/null so the child's exit stays silent. *)
        let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
        Unix.dup2 devnull Unix.stdout;
        Unix.dup2 devnull Unix.stderr;
        let sink = Qlog.open_sink path in
        Qlog.log sink sample_event;
        exit 0
      | pid ->
        let _, status = Unix.waitpid [] pid in
        Alcotest.(check bool) "child exited cleanly" true
          (status = Unix.WEXITED 0);
        let events, bad = Qlog.read_file path in
        Alcotest.(check int) "no malformed lines" 0 bad;
        (match events with
         | [ e ] ->
           Alcotest.(check string)
             "event survived the exit" sample_event.Qlog.fingerprint
             e.Qlog.fingerprint;
           Alcotest.(check int) "batch field round-trips" 4 e.Qlog.batch;
           Alcotest.(check int) "queue_ns field round-trips" 250
             e.Qlog.queue_ns
         | es ->
           Alcotest.failf "expected exactly one flushed event, got %d"
             (List.length es)))

(* ------------------------------------------------------------------ *)
(* Batched vs one-at-a-time differential                               *)
(* ------------------------------------------------------------------ *)

(* Templates over the fixture catalog; parameters picked so results vary
   per invocation (prices span 5..50). *)
let t_price = "select p.pname from p in PART where p.price < ?0"

let t_range =
  "select p.pname from p in PART where p.price >= ?0 and p.price <= ?1"

let t_noparam = "select s.sname from s in SUPPLIER"

let price_params i = [ Value.int (i * 7 mod 60) ]
let range_params i = [ Value.int (i * 3 mod 30); Value.int (20 + (i * 11 mod 40)) ]

let test_differential () =
  List.iter
    (fun domains ->
      with_domains domains (fun () ->
          let cat = Util.small_catalog () in
          Plancache.clear ();
          let h_price = Serve.prepare cat ~translate t_price in
          let h_range = Serve.prepare cat ~translate t_range in
          let h_none = Serve.prepare cat ~translate t_noparam in
          Alcotest.(check int) "t_price arity" 1 (Serve.nparams h_price);
          Alcotest.(check int) "t_range arity" 2 (Serve.nparams h_range);
          Alcotest.(check int) "t_noparam arity" 0 (Serve.nparams h_none);
          List.iter
            (fun k ->
              let check name h mk =
                let vectors = List.init k mk in
                let batched = Serve.exec_batch h vectors in
                let singles =
                  List.map (fun ps -> fst (Serve.exec_one h ps)) vectors
                in
                List.iteri
                  (fun i (b, s) ->
                    Alcotest.check Util.value
                      (Printf.sprintf "%s [%d domains] K=%d cid=%d" name
                         domains k i)
                      s b)
                  (List.combine batched singles)
              in
              check "price" h_price price_params;
              check "range" h_range range_params;
              check "noparam" h_none (fun _ -> []))
            [ 1; 4; 16; 64 ]))
    [ 1; 2; 4 ]

(* Arity mismatches must fail fast, not execute. *)
let test_arity_check () =
  let cat = Util.small_catalog () in
  Plancache.clear ();
  let h = Serve.prepare cat ~translate t_price in
  Alcotest.check_raises "too many parameters"
    (Invalid_argument
       (Printf.sprintf "Serve: 2 parameters given, template %s takes 1"
          (Serve.text h)))
    (fun () -> ignore (Serve.exec_one h [ Value.int 1; Value.int 2 ]))

(* ------------------------------------------------------------------ *)
(* Prepared = literal: a template plans and runs like its literal twin  *)
(* ------------------------------------------------------------------ *)

(* The perfbench serve templates, a range over a sorted index and the
   index-free b16 template, each with parameters to draw from: some match
   nothing ("nobody", price 0).  Every draw is selective enough that the
   literal twin takes the index path too. *)
let literal_cases =
  let sname i = Value.string (Printf.sprintf "s%d" i) in
  [ ( "nestjoin",
      {|select (sname = s.sname,
         pnames = select p.pname from p in PART where p.oid in s.parts_supplied)
  from s in SUPPLIER where s.sname = ?0|},
      [ sname 3; sname 40; Value.string "nobody"; sname 7; sname 100 ] );
    ( "point",
      "select p.pname from p in PART where p.price = ?0",
      [ Value.int 17; Value.int 250; Value.int 0; Value.int 499; Value.int 3 ] );
    ( "semijoin",
      {|select s.sname from s in SUPPLIER
  where s.sname = ?0 and
        exists z in s.parts_supplied : exists p in PART : z = p.oid and p.color = "red"|},
      [ sname 5; Value.string "nobody"; sname 77; sname 0; sname 120 ] );
    ( "range",
      "select p.pname from p in PART where p.price < ?0",
      [ Value.int 12; Value.int 0; Value.int 30; Value.int 2; Value.int 41 ] );
    ( "b16",
      "select p.pname from p in PART where p.color = ?0",
      [ Value.string "red"; Value.string "teal"; Value.string "blue" ] ) ]

let literal_catalog () =
  let cat =
    Njq_workload.Generator.catalog
      { (Njq_workload.Generator.scaled ~seed:5 256) with
        Njq_workload.Generator.fanout = 4;
        dangling_rate = 0.0 }
  in
  List.iter
    (fun (table, attr, kind) ->
      ignore (Catalog.create_index cat ~table ~kind ~attrs:[ attr ] ()))
    [ ("PART", "price", Catalog.Hash_index);
      ("PART", "price", Catalog.Sorted_index);
      ("SUPPLIER", "sname", Catalog.Hash_index) ];
  cat

(* The template's text with [?0] replaced by the parameter's literal. *)
let literal_text text v =
  let lit =
    match v with
    | Value.VString s -> Printf.sprintf "%S" s
    | v -> Fmt.str "%a" Value.pp v
  in
  let rec find i = if String.sub text i 2 = "?0" then i else find (i + 1) in
  let i = find 0 in
  String.sub text 0 i ^ lit ^ String.sub text (i + 2) (String.length text - i - 2)

let serve_plan cat text = snd (Planner.derive cat (translate text))

let labels p =
  let acc = ref [] in
  Njq_engine.Plan.iter_nodes
    (fun n -> acc := Njq_engine.Plan.node_label n :: !acc)
    p;
  List.rev !acc

let test_prepared_equals_literal () =
  List.iter
    (fun domains ->
      with_domains domains (fun () ->
          let cat = literal_catalog () in
          Plancache.clear ();
          List.iter
            (fun (name, text, draws) ->
              let h = Serve.prepare cat ~translate text in
              let draw i = List.nth draws (i mod List.length draws) in
              List.iter
                (fun k ->
                  let vectors = List.init k (fun i -> [ draw i ]) in
                  let batched = Serve.exec_batch h vectors in
                  List.iteri
                    (fun i (ps, b) ->
                      let what =
                        Printf.sprintf "%s [%d domains] K=%d #%d" name domains
                          k i
                      in
                      let want =
                        Eval.run cat (translate (literal_text text (List.hd ps)))
                      in
                      Alcotest.check Util.value (what ^ " one = literal") want
                        (fst (Serve.exec_one h ps));
                      Alcotest.check Util.value (what ^ " batch = literal")
                        want b)
                    (List.combine vectors batched))
                [ 1; 2; 5; 16 ])
            literal_cases))
    [ 1; 2 ]

let test_prepared_plans_like_literal () =
  let cat = literal_catalog () in
  List.iter
    (fun (name, text, draws) ->
      let param = labels (serve_plan cat text) in
      List.iter
        (fun v ->
          Alcotest.(check (list string))
            (Fmt.str "%s: ?0 plan vs literal %a" name Value.pp v)
            (labels (serve_plan cat (literal_text text v)))
            param)
        draws)
    literal_cases

(* The per-batch choice: b16's index-free template shares its scan across
   the batch and stays set-oriented; the indexed point template runs one
   bound plan per invocation. *)
let test_batch_choice_counted () =
  let cat = literal_catalog () in
  Plancache.clear ();
  let iterated = Njq_obs.Metrics.counter "serve_batch_iterated" in
  let batches = Njq_obs.Metrics.counter "serve_batch" in
  let serve name =
    let _, text, draws = List.find (fun (n, _, _) -> n = name) literal_cases in
    let h = Serve.prepare cat ~translate text in
    let i0 = Njq_obs.Metrics.value iterated
    and b0 = Njq_obs.Metrics.value batches in
    let replies =
      Serve.run ~window:8 ~burst:8 ~clients:1 ~requests:16
        ~params:(fun ~client:_ ~seq ->
          (h, [ List.nth draws (seq mod List.length draws) ]))
        ()
    in
    Alcotest.(check bool) (name ^ ": batches of 8") true
      (List.for_all (fun (r : Serve.reply) -> r.batch = 8) replies);
    ( Njq_obs.Metrics.value iterated - i0,
      Njq_obs.Metrics.value batches - b0 )
  in
  Alcotest.(check (pair int int)) "b16 stays set-oriented" (0, 2) (serve "b16");
  Alcotest.(check (pair int int)) "point runs per invocation" (2, 2)
    (serve "point")

(* ------------------------------------------------------------------ *)
(* Concurrent driver                                                   *)
(* ------------------------------------------------------------------ *)

let test_driver_routes_replies () =
  let cat = Util.small_catalog () in
  Plancache.clear ();
  let h_price = Serve.prepare cat ~translate t_price in
  let h_range = Serve.prepare cat ~translate t_range in
  let pick ~client ~seq =
    let i = (client * 17) + seq in
    if i mod 2 = 0 then (h_price, price_params i) else (h_range, range_params i)
  in
  List.iter
    (fun (batching, clients, requests, burst) ->
      let replies =
        Serve.run ~batching ~window:8 ~burst ~clients ~requests ~params:pick ()
      in
      Alcotest.(check int)
        (Printf.sprintf "all replies arrive (batching=%b)" batching)
        (clients * requests) (List.length replies);
      List.iter
        (fun (r : Serve.reply) ->
          let h, ps = pick ~client:r.client ~seq:r.seq in
          let expect = fst (Serve.exec_one h ps) in
          Alcotest.check Util.value
            (Printf.sprintf "client %d seq %d (batching=%b)" r.client r.seq
               batching)
            expect r.value;
          Alcotest.(check bool) "batch size sane" true
            (r.batch >= 1 && r.batch <= 8);
          if not batching then
            Alcotest.(check int) "unbatched service is singleton" 1 r.batch;
          Alcotest.(check bool) "non-negative waits" true
            (r.queue_ns >= 0 && r.service_ns >= 0))
        replies)
    [ (true, 4, 6, 2); (false, 3, 4, 1) ]

(* ------------------------------------------------------------------ *)
(* Plan-cache epoch invalidation under a configured pool               *)
(* ------------------------------------------------------------------ *)

let pnames vs = Value.set (List.map Value.string vs)

let test_epoch_invalidation_under_pool () =
  List.iter
    (fun domains ->
      with_domains domains (fun () ->
          let cat = Util.small_catalog () in
          Plancache.clear ();
          let h = Serve.prepare cat ~translate t_price in
          let run_k k =
            Serve.exec_batch h (List.init k (fun i -> [ Value.int (8 + i) ]))
          in
          (match run_k 3 with
           | [ v; _; _ ] ->
             Alcotest.check Util.value
               (Printf.sprintf "initial rows at %d domains" domains)
               (pnames [ "nut" ]) v
           | _ -> Alcotest.fail "expected 3 results");
          let m0 = Plancache.misses () in
          ignore (run_k 3);
          Alcotest.(check int)
            (Printf.sprintf "stable catalog serves from cache at %d domains"
               domains)
            0
            (Plancache.misses () - m0);
          (* Mutate a base table from inside the pool: the epoch bump must
             be visible to the serving path after the join, re-deriving
             both the one-at-a-time and batched plans. *)
          let new_rows =
            [ Util.part ~oid:7 ~pname:"axle" ~price:3 ~color:"red";
              Util.part ~oid:8 ~pname:"gear" ~price:40 ~color:"blue" ]
          in
          ignore
            (Pool.run (max 2 domains) (fun i ->
                 if i = 0 then Catalog.set_rows cat "PART" new_rows));
          (match run_k 3 with
           | [ v; _; _ ] ->
             Alcotest.check Util.value
               (Printf.sprintf "post-update rows at %d domains" domains)
               (pnames [ "axle" ]) v
           | _ -> Alcotest.fail "expected 3 results");
          Alcotest.(check bool)
            (Printf.sprintf "epoch bump re-derived at %d domains" domains)
            true
            (Plancache.misses () - m0 > 0)))
    [ 1; 2; 4 ]

(* ------------------------------------------------------------------ *)
(* One derivation, cached by its exact text                            *)
(* ------------------------------------------------------------------ *)

(* Serve's plans come from the derivation every command uses, so a
   template's closed subquery is a constant evaluated once per
   derivation, not once per invocation. *)
let test_serve_derives_like_cli () =
  let cat =
    Njq_workload.Generator.catalog (Njq_workload.Generator.scaled ~seed:5 256)
  in
  Plancache.clear ();
  let text =
    {|select p.pname from p in PART where p.color = ?0 and p.price > count(select q from q in PART where q.color = "red")|}
  in
  let h = Serve.prepare cat ~translate text in
  Alcotest.(check string) "fingerprint of the shared derivation"
    (Njq_engine.Plan.fingerprint (snd (Planner.derive cat (translate text))))
    (Serve.fingerprint h);
  let red = [ Value.string "red" ] in
  let (v, hit), u = Njq_obs.Metrics.measure (fun () -> Serve.exec_one h red) in
  Alcotest.(check bool) "exec_one hits the cached plan" true hit;
  Alcotest.(check int) "no nested-loop tuple visits" 0
    (Option.value ~default:0 (List.assoc_opt "nl_tuple_visit" u.work));
  Alcotest.check Util.value "rows of the literal query"
    (Eval.run cat (translate (literal_text text (List.hd red))))
    v

let derive_for cat count text () =
  incr count;
  snd (Planner.derive cat (translate text))

(* Whitespace variants of one text share an entry; texts that differ in a
   constant are different queries, each with its own plan and rows. *)
let test_keyed_by_exact_text () =
  let cat = Util.small_catalog () in
  Plancache.clear ();
  let derived = ref 0 in
  let run q =
    Exec.run cat
      (fst (Plancache.find_or_derive cat q ~derive:(derive_for cat derived q)))
  in
  let v20 = run "select p.pname from p in PART where p.price < 20" in
  let v20' = run "select p.pname\n  from p in PART  where p.price < 20 " in
  Alcotest.(check int) "whitespace variants derive once" 1 !derived;
  let v7 = run "select p.pname from p in PART where p.price < 7" in
  Alcotest.(check int) "another constant derives its own plan" 2 !derived;
  Alcotest.(check int) "two entries" 2 (Plancache.size ());
  Alcotest.check Util.value "threshold 20" (pnames [ "bolt"; "nut" ]) v20;
  Alcotest.check Util.value "variant of threshold 20" v20 v20';
  Alcotest.check Util.value "threshold 7" (pnames [ "nut" ]) v7

(* Fresh names are numbered per derivation, so a text's plan, and its
   fingerprint, do not depend on what the process derived before. *)
let test_fingerprint_ignores_history () =
  let cat = Util.small_catalog () in
  let fingerprint text =
    Njq_engine.Plan.fingerprint (snd (Planner.derive cat (translate text)))
  in
  let q =
    "select (sname = s.sname, pnames = select p.pname from p in PART where \
     p.oid in s.parts_supplied) from s in SUPPLIER"
  in
  let first = fingerprint q in
  List.iter
    (fun text -> ignore (fingerprint text))
    [ q;
      "select s.sname from s in SUPPLIER where exists z in s.parts_supplied \
       : exists p in PART : z = p.oid and p.color = \"red\"";
      "select (n = s.sname, c = count(select p from p in PART where p.oid \
       in s.parts_supplied)) from s in SUPPLIER" ];
  Alcotest.(check string) "same fingerprint after other derivations" first
    (fingerprint q)

(* ------------------------------------------------------------------ *)
(* No cache entry pins what no lookup can reach                        *)
(* ------------------------------------------------------------------ *)

let price_query = "select p.pname from p in PART where p.price < 20"

(* A miss drops the catalog's entries for older epochs. *)
let test_older_epochs_dropped () =
  let cat = Util.small_catalog () in
  Plancache.clear ();
  let derived = ref 0 in
  let lookup () =
    ignore
      (Plancache.find_or_derive cat price_query
         ~derive:(derive_for cat derived price_query))
  in
  lookup ();
  Alcotest.(check int) "one entry" 1 (Plancache.size ());
  Catalog.set_rows cat "PART" (Catalog.rows cat "PART");
  lookup ();
  Alcotest.(check int) "re-derived at the new epoch" 2 !derived;
  Alcotest.(check int) "still one entry" 1 (Plancache.size ())

(* Plans are held through an ephemeron keyed on their catalog: once
   nothing else references the catalog, its cached plan is collected. *)
let test_dropped_catalog_frees_plan () =
  Plancache.clear ();
  let weak = Weak.create 1 in
  let[@inline never] cache_a_plan () =
    let cat = Util.small_catalog () in
    let plan, _ =
      Plancache.find_or_derive cat price_query
        ~derive:(derive_for cat (ref 0) price_query)
    in
    Weak.set weak 0 (Some plan)
  in
  cache_a_plan ();
  Gc.full_major ();
  Alcotest.(check int) "entry kept" 1 (Plancache.size ());
  Alcotest.(check bool) "plan collected" true (Option.is_none (Weak.get weak 0))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "serve"
    [ ( "qlog",
        [ Alcotest.test_case "flush on exit" `Quick test_qlog_flush_on_exit ] );
      ( "differential",
        [ Alcotest.test_case "batched = one-at-a-time (K x domains)"
            `Quick test_differential;
          Alcotest.test_case "arity check" `Quick test_arity_check ] );
      ( "prepared",
        [ Alcotest.test_case "results (K x domains)" `Quick
            test_prepared_equals_literal;
          Alcotest.test_case "plan shapes" `Quick
            test_prepared_plans_like_literal;
          Alcotest.test_case "per-batch choice counted" `Quick
            test_batch_choice_counted ] );
      ( "driver",
        [ Alcotest.test_case "routes per-client replies" `Quick
            test_driver_routes_replies ] );
      ( "invalidation",
        [ Alcotest.test_case "epoch bump under pool at 1/2/4 domains" `Quick
            test_epoch_invalidation_under_pool;
          Alcotest.test_case "older epochs dropped" `Quick
            test_older_epochs_dropped;
          Alcotest.test_case "dropped catalog frees its plans" `Quick
            test_dropped_catalog_frees_plan ] );
      ( "exact text",
        [ Alcotest.test_case "serve derives like the CLI" `Quick
            test_serve_derives_like_cli;
          Alcotest.test_case "one entry per text" `Quick
            test_keyed_by_exact_text;
          Alcotest.test_case "fingerprint ignores history" `Quick
            test_fingerprint_ignores_history ] ) ]
