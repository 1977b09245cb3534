(* Properties of the observability histograms and the query log: exact
   shard merging, percentile error bounds, allocation-free recording,
   sharded [Metrics.observe] through the real domain pool,
   and the qlog event/sink/aggregate pipeline. *)

module H = Njq_obs.Histogram
module M = Njq_obs.Metrics
module Qlog = Njq_obs.Qlog
module Json = Njq_obs.Json
module Pool = Njq_engine.Pool

(* Values spanning the unit buckets, the log-bucketed octaves, and the
   large tail — the shapes latency samples actually take. *)
let value_gen =
  QCheck.Gen.(
    oneof
      [ int_bound 255;
        map (fun i -> 256 + i) (int_bound 100_000);
        map (fun i -> 1_000_000 + i) (int_bound 2_000_000_000) ])

let arbitrary_values =
  QCheck.make
    ~print:QCheck.Print.(list int)
    QCheck.Gen.(list_size (int_range 1 200) value_gen)

let arbitrary_shards =
  QCheck.make
    ~print:QCheck.Print.(list (list int))
    QCheck.Gen.(list_size (int_range 1 8) (list_size (int_range 0 60) value_gen))

let of_values vs =
  let h = H.create () in
  List.iter (H.record h) vs;
  h

(* Merging per-shard histograms is lossless: bucket for bucket equal to
   one histogram over the concatenated samples — the invariant that makes
   per-domain shards and [njq top]'s per-plan folds exact. *)
let prop_merge_of_shards =
  Util.qcheck ~count:300 "merge of shards = histogram of concatenation"
    arbitrary_shards
    (fun shards ->
      let merged = H.create () in
      List.iter
        (fun vs -> H.merge_into ~into:merged (of_values vs))
        shards;
      H.equal merged (of_values (List.concat shards)))

(* [percentile] never undershoots the true order statistic and overshoots
   by at most the holding bucket's width. *)
let prop_percentile_bound =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:300 ~name:"percentile within one bucket width"
       (QCheck.pair arbitrary_values (QCheck.float_range 0.0 1.0))
       (fun (vs, q) ->
         let h = of_values vs in
         let sorted = List.sort compare vs in
         let n = List.length vs in
         (* same rank formula as the implementation *)
         let rank =
           let r = int_of_float (ceil (q *. float_of_int n)) in
           if r < 1 then 1 else if r > n then n else r
         in
         let exact = List.nth sorted (rank - 1) in
         let p = H.percentile h q in
         let _, hi = H.bucket_range exact in
         exact <= p && p <= hi))

(* Min/max are exact, count/sum are exact. *)
let prop_aggregates_exact =
  Util.qcheck ~count:300 "count/sum/min/max are exact" arbitrary_values
    (fun vs ->
      let h = of_values vs in
      H.count h = List.length vs
      && H.sum h = List.fold_left ( + ) 0 vs
      && H.min_value h = List.fold_left min max_int vs
      && H.max_value h = List.fold_left max (-1) vs)

(* Recording must not allocate: it runs per query and per parallel task. *)
let test_record_allocation_free () =
  let h = H.create () in
  (* warm up: first records touch every code path *)
  for i = 0 to 999 do
    H.record h (i * 37)
  done;
  let min0 = Gc.minor_words () in
  for i = 0 to 9_999 do
    H.record h (i * 53)
  done;
  let min1 = Gc.minor_words () in
  let delta = min1 -. min0 in
  (* the probe itself costs a few words; recording must stay O(1)
     total, nowhere near the >=2 words/record a boxing bug would cost
     (20k+ words here) *)
  if delta > 64.0 then
    Alcotest.failf "recording allocated %.0f minor words over 10k records"
      delta

(* Sharded observation through the real pool: N domains each observing a
   disjoint slice must merge into exactly the sequential histogram. *)
let test_sharded_observe_exact () =
  M.reset ();
  let h = M.histogram "test_shard_hist" in
  let slices =
    List.init 4 (fun s -> List.init 50 (fun i -> (s * 1000) + (i * 17)))
  in
  Pool.set_domains 3;
  ignore (Pool.run 4 (fun s -> List.iter (M.observe h) (List.nth slices s)));
  Pool.set_domains (Pool.default_domains ());
  let expected = of_values (List.concat slices) in
  Alcotest.(check bool)
    "pool-sharded observe = sequential" true
    (H.equal expected (M.hist_value h));
  M.reset ()

(* Counter increments from every domain of a parallel section reach the
   main cell exactly. *)
let test_sharded_counter_exact () =
  M.reset ();
  let c = M.counter "test_domain_attr" in
  Pool.set_domains 3;
  ignore (Pool.run 4 (fun s -> M.incr ~n:(s + 1) c));
  Pool.set_domains (Pool.default_domains ());
  Alcotest.(check int) "main total" 10 (M.value c);
  M.reset ()

(* ---------------- query log ---------------- *)

let sample_event ?(fp = "deadbeefdeadbeef") ?(wall_ns = 5_000_000)
    ?(cache = "miss") () =
  {
    Qlog.ts_ns = 123_456_789;
    query_hash = Qlog.hash_hex "select s from s in S";
    fingerprint = fp;
    cache;
    rows = 42;
    work = [ ("eval_steps", 100); ("hash_probes", 7) ];
    work_total = 107;
    minor_words = 512.0;
    major_words = 0.0;
    wall_ns;
    cpu_ns = 4_900_000;
    queue_ns = 0;
    batch = 1;
    max_qerror = 1.5;
    spilled = 4096;
    slow = false;
  }

let test_event_json_roundtrip () =
  let e = sample_event () in
  match Qlog.of_json (Json.of_string (Json.to_string (Qlog.to_json e))) with
  | None -> Alcotest.fail "event did not round-trip"
  | Some e' ->
    Alcotest.(check string) "query_hash" e.Qlog.query_hash e'.Qlog.query_hash;
    Alcotest.(check string) "fingerprint" e.Qlog.fingerprint e'.Qlog.fingerprint;
    Alcotest.(check string) "cache" e.Qlog.cache e'.Qlog.cache;
    Alcotest.(check int) "rows" e.Qlog.rows e'.Qlog.rows;
    Alcotest.(check int) "wall_ns" e.Qlog.wall_ns e'.Qlog.wall_ns;
    Alcotest.(check int) "work_total" e.Qlog.work_total e'.Qlog.work_total;
    Alcotest.(check bool) "work" true (e.Qlog.work = e'.Qlog.work);
    Alcotest.(check (float 0.0)) "qerror" e.Qlog.max_qerror e'.Qlog.max_qerror

let test_hash_hex_stable () =
  (* pinned: the fingerprint join key must never drift across versions *)
  Alcotest.(check string) "fnv1a of empty" "cbf29ce484222325"
    (Qlog.hash_hex "");
  Alcotest.(check string) "fnv1a of abc" "e71fa2190541574b"
    (Qlog.hash_hex "abc");
  Alcotest.(check int) "16 hex digits" 16
    (String.length (Qlog.hash_hex "anything"))

let with_tmp f =
  let path = Filename.temp_file "njq_qlog" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let test_sink_slow_filter () =
  with_tmp (fun path ->
      let sink = Qlog.open_sink ~slow_ms:1.0 path in
      Qlog.log sink (sample_event ~wall_ns:5_000_000 ());
      (* 5ms: kept *)
      Qlog.log sink (sample_event ~wall_ns:10_000 ());
      (* 0.01ms: dropped *)
      Alcotest.(check int) "written" 1 (Qlog.written sink);
      Alcotest.(check int) "dropped" 1 (Qlog.dropped sink);
      Qlog.close sink;
      let events, bad = Qlog.read_file path in
      Alcotest.(check int) "no malformed lines" 0 bad;
      match events with
      | [ e ] ->
        Alcotest.(check bool) "slow stamped" true e.Qlog.slow;
        Alcotest.(check int) "the 5ms event" 5_000_000 e.Qlog.wall_ns
      | es -> Alcotest.failf "expected 1 event, read %d" (List.length es))

let test_read_file_skips_malformed () =
  with_tmp (fun path ->
      let sink = Qlog.open_sink path in
      Qlog.log sink (sample_event ());
      Qlog.close sink;
      let oc = open_out_gen [ Open_append ] 0o644 path in
      output_string oc "{not json\n{\"ts_ns\": 1}\n";
      close_out oc;
      let events, bad = Qlog.read_file path in
      Alcotest.(check int) "one good event" 1 (List.length events);
      Alcotest.(check int) "two bad lines" 2 bad)

let test_aggregate () =
  let events =
    [ sample_event ~fp:"aaaaaaaaaaaaaaaa" ~wall_ns:1_000_000 ~cache:"miss" ();
      sample_event ~fp:"aaaaaaaaaaaaaaaa" ~wall_ns:3_000_000 ~cache:"hit" ();
      sample_event ~fp:"bbbbbbbbbbbbbbbb" ~wall_ns:9_000_000 ~cache:"hit" ()
    ]
  in
  match Qlog.aggregate events with
  | [ first; second ] ->
    (* sorted by total wall time descending: b (9ms) before a (4ms) *)
    Alcotest.(check string) "heaviest first" "bbbbbbbbbbbbbbbb"
      first.Qlog.a_fingerprint;
    Alcotest.(check int) "b calls" 1 first.Qlog.a_calls;
    Alcotest.(check string) "then a" "aaaaaaaaaaaaaaaa"
      second.Qlog.a_fingerprint;
    Alcotest.(check int) "a calls" 2 second.Qlog.a_calls;
    Alcotest.(check int) "a hits" 1 second.Qlog.a_hits;
    Alcotest.(check (float 1e-9)) "a hit rate" 0.5 (Qlog.hit_rate second);
    Alcotest.(check int) "a wall total" 4_000_000 second.Qlog.a_wall_total;
    Alcotest.(check int) "a work" 214 second.Qlog.a_work;
    Alcotest.(check int) "a p-max" 3_000_000
      (H.max_value second.Qlog.a_wall)
  | aggs -> Alcotest.failf "expected 2 agg rows, got %d" (List.length aggs)

let () =
  Alcotest.run "histogram"
    [ ( "histogram",
        [ prop_merge_of_shards; prop_percentile_bound; prop_aggregates_exact;
          Alcotest.test_case "recording is allocation-free" `Quick
            test_record_allocation_free ] );
      ( "metrics",
        [ Alcotest.test_case "pool-sharded observe is exact" `Quick
            test_sharded_observe_exact;
          Alcotest.test_case "pool-sharded counter total is exact" `Quick
            test_sharded_counter_exact ] );
      ( "qlog",
        [ Alcotest.test_case "event JSON round trip" `Quick
            test_event_json_roundtrip;
          Alcotest.test_case "hash_hex pinned" `Quick test_hash_hex_stable;
          Alcotest.test_case "sink slow threshold" `Quick
            test_sink_slow_filter;
          Alcotest.test_case "read_file skips malformed" `Quick
            test_read_file_skips_malformed;
          Alcotest.test_case "aggregate per fingerprint" `Quick
            test_aggregate ] ) ]
