(* Tests for the observability layer: span nesting and ordering, exporter
   JSON well-formedness, [Metrics.measure] (counter deltas, and the words
   the pool's workers allocate), a micro-check that interned handles beat
   interning per tick, q-error math, and — the load-bearing property —
   that the non-perturbing per-operator profile reports, for every node,
   exactly the row count of executing that node's subtree on its own, on
   the paper's query workload. *)

open Njq_adl
open Dsl
module Clock = Njq_obs.Clock
module Json = Njq_obs.Json
module Metrics = Njq_obs.Metrics
module Span = Njq_obs.Span
module Export = Njq_obs.Export
module Planner = Njq_engine.Planner
module Exec = Njq_engine.Exec
module Profile = Njq_engine.Profile

(* ---------------- JSON reader/writer ---------------- *)

let sample_doc =
  Json.Obj
    [ ("null", Json.Null);
      ("flag", Json.Bool true);
      ("count", Json.Int 42);
      ("ratio", Json.Float 1.5);
      ("text", Json.Str "a \"quoted\"\nline\twith\\escapes");
      ("items", Json.List [ Json.Int 1; Json.Int (-2); Json.Float 0.25 ]);
      ("nested", Json.Obj [ ("empty_list", Json.List []); ("empty_obj", Json.Obj []) ])
    ]

let test_json_roundtrip () =
  List.iter
    (fun pretty ->
      let s = Json.to_string ~pretty sample_doc in
      Alcotest.(check bool)
        (Printf.sprintf "round-trip (pretty=%b)" pretty)
        true
        (Json.equal sample_doc (Json.of_string s)))
    [ false; true ]

let test_json_parse_units () =
  Alcotest.(check bool) "int stays int" true
    (Json.of_string "17" = Json.Int 17);
  Alcotest.(check bool) "float stays float" true
    (Json.of_string "1.5e2" = Json.Float 150.0);
  Alcotest.(check bool) "escape decoding" true
    (Json.of_string {|"aA\n"|} = Json.Str "aA\n");
  Alcotest.(check bool) "garbage rejected" true
    (Json.of_string_opt "{broken" = None);
  Alcotest.(check bool) "trailing rejected" true
    (Json.of_string_opt "1 2" = None);
  Alcotest.(check bool) "member lookup" true
    (Json.member "count" sample_doc = Some (Json.Int 42));
  Alcotest.(check bool) "member on non-obj" true
    (Json.member "x" (Json.Int 1) = None)

(* ---------------- spans ---------------- *)

let test_span_nesting () =
  let (), spans =
    Span.trace (fun () ->
        Span.with_span "root" (fun () ->
            Span.with_span "child1" (fun () -> ignore (Sys.opaque_identity 1));
            Span.with_span "child2" (fun () ->
                Span.emit ~start_ns:(Clock.now_ns ()) "leaf")))
  in
  let names = List.map (fun (s : Span.span) -> s.name) spans in
  Alcotest.(check (list string))
    "start order" [ "root"; "child1"; "child2"; "leaf" ] names;
  let by_name n = List.find (fun (s : Span.span) -> s.name = n) spans in
  let root = by_name "root" in
  let child1 = by_name "child1" in
  let child2 = by_name "child2" in
  let leaf = by_name "leaf" in
  Alcotest.(check int) "root depth" 0 root.depth;
  Alcotest.(check bool) "root is a root" true (root.parent = None);
  Alcotest.(check bool) "child1 parent" true (child1.parent = Some root.id);
  Alcotest.(check bool) "child2 parent" true (child2.parent = Some root.id);
  Alcotest.(check bool) "leaf parent" true (leaf.parent = Some child2.id);
  Alcotest.(check int) "leaf depth" 2 leaf.depth;
  List.iter
    (fun (s : Span.span) ->
      Alcotest.(check bool) (s.name ^ " closed") true (s.stop_ns >= s.start_ns))
    spans;
  Alcotest.(check bool) "children inside root" true
    (child1.stop_ns <= root.stop_ns && child2.start_ns >= root.start_ns)

let test_span_disabled_is_noop () =
  Span.reset ();
  Span.stop_tracing ();
  Span.with_span "ignored" (fun () -> ());
  Span.emit ~start_ns:0 "also ignored";
  Alcotest.(check int) "nothing collected" 0 (List.length (Span.finished ()))

(* Tracing a real pipeline run: the rewrite span encloses its phases. *)
let test_pipeline_spans () =
  let cat = Util.small_catalog () in
  let q = Njq_workload.Queries.find "EQ5" in
  let adl = Njq_workload.Queries.to_adl q in
  let _, spans =
    Span.trace (fun () -> Njq_core.Strategy.optimize cat adl)
  in
  let by_name n = List.find_opt (fun (s : Span.span) -> s.name = n) spans in
  let rewrite =
    match by_name "rewrite" with
    | Some s -> s
    | None -> Alcotest.fail "no rewrite span"
  in
  let phases =
    List.filter
      (fun (s : Span.span) ->
        String.length s.name > 6 && String.sub s.name 0 6 = "phase:")
      spans
  in
  Alcotest.(check bool) "has phase spans" true (phases <> []);
  List.iter
    (fun (s : Span.span) ->
      Alcotest.(check bool) (s.name ^ " under rewrite") true
        (s.parent = Some rewrite.id))
    phases;
  (* EQ5 rewrites to a semijoin, so at least one rule fired. *)
  Alcotest.(check bool) "has rule spans" true
    (List.exists
       (fun (s : Span.span) ->
         String.length s.name > 5 && String.sub s.name 0 5 = "rule:")
       spans)

(* ---------------- exporters ---------------- *)

let traced_spans () =
  let cat = Util.small_catalog () in
  let adl = Njq_workload.Queries.to_adl (Njq_workload.Queries.find "EQ5") in
  let _, spans =
    Span.trace (fun () ->
        let e = Njq_core.Strategy.optimize cat adl in
        fst (Exec.collect (fun () -> Planner.run cat e)))
  in
  spans

let test_export_json_wellformed () =
  let spans = traced_spans () in
  Alcotest.(check bool) "has operator spans" true
    (List.exists
       (fun (s : Span.span) ->
         String.length s.name > 3 && String.sub s.name 0 3 = "op:")
       spans);
  let doc = Export.spans_to_json spans in
  Alcotest.(check bool) "spans JSON round-trips" true
    (Json.equal doc (Json.of_string (Json.to_string ~pretty:true doc)))

let test_chrome_trace_wellformed () =
  let spans = traced_spans () in
  let doc = Export.chrome_trace spans in
  let parsed = Json.of_string (Json.to_string doc) in
  match Json.member "traceEvents" parsed with
  | Some (Json.List events) ->
    Alcotest.(check int) "one event per span" (List.length spans)
      (List.length events);
    List.iter
      (fun ev ->
        Alcotest.(check bool) "complete event" true
          (Json.member "ph" ev = Some (Json.Str "X"));
        List.iter
          (fun k ->
            Alcotest.(check bool) ("has " ^ k) true (Json.member k ev <> None))
          [ "name"; "ts"; "dur"; "pid"; "tid" ])
      events
  | _ -> Alcotest.fail "no traceEvents array"

(* ---------------- Measuring a run ---------------- *)

(* [measure] reports the counters its run ticked as deltas, nests, and
   leaves the registry's totals alone. *)
let test_measure_counter_deltas () =
  Metrics.reset_counters ();
  let a = Metrics.counter "obs_a" in
  Metrics.incr ~n:5 a;
  let (), outer =
    Metrics.measure (fun () ->
        let (), inner =
          Metrics.measure (fun () ->
              Metrics.incr a;
              Metrics.incr (Metrics.counter "obs_c"))
        in
        Alcotest.(check (list (pair string int)))
          "inner" [ ("obs_a", 1); ("obs_c", 1) ] inner.work;
        Metrics.incr ~n:2 a)
  in
  Alcotest.(check (list (pair string int)))
    "outer" [ ("obs_a", 3); ("obs_c", 1) ] outer.work;
  Alcotest.(check int) "registry total" 8 (Metrics.get "obs_a");
  Metrics.reset_counters ()

(* [Gc.minor_words] counts the calling domain only: a run whose pool
   tasks allocate must still be charged their words, whichever domain
   ran them.  Each task conses [cells] small blocks of three words. *)
let test_measure_counts_workers () =
  let tasks = 32 and cells = 20_000 in
  let rec build n acc = if n = 0 then acc else build (n - 1) (n :: acc) in
  let prev = Njq_engine.Pool.domains () in
  Njq_engine.Pool.set_domains 2;
  Fun.protect ~finally:(fun () -> Njq_engine.Pool.set_domains prev)
  @@ fun () ->
  let kept, u =
    Metrics.measure (fun () ->
        Njq_engine.Pool.run tasks (fun _ -> Sys.opaque_identity (build cells [])))
  in
  let expected = float_of_int (3 * cells * tasks) in
  Alcotest.(check int) "tasks ran" tasks (Array.length kept);
  if u.minor_words < expected then
    Alcotest.failf "measured %.0f minor words, the tasks allocated %.0f"
      u.minor_words expected

(* Interned handles must beat string ticks on the hot path: the handle
   increment is a flag read plus a field add, interning per tick re-hashes
   and re-probes per call.  Best-of-3 over 1M iterations keeps this
   robust. *)
let test_interned_beats_string () =
  let iters = 1_000_000 in
  let h = Metrics.counter "obs_micro_interned" in
  let interned () =
    for _ = 1 to iters do
      Metrics.incr h
    done
  in
  let stringly () =
    for _ = 1 to iters do
      Metrics.incr (Metrics.counter "obs_micro_string")
    done
  in
  let time f =
    let t0 = Clock.now_ns () in
    f ();
    Clock.elapsed_ns t0
  in
  let best f =
    ignore (time f);
    List.fold_left min max_int (List.init 3 (fun _ -> time f))
  in
  let ti = best interned in
  let ts = best stringly in
  Metrics.reset_counters ();
  Alcotest.(check bool)
    (Printf.sprintf "interned %d ns < string %d ns" ti ts)
    true (ti < ts)

(* ---------------- q-error ---------------- *)

let test_qerror_math () =
  let check name expected est actual =
    Alcotest.(check (float 1e-9)) name expected (Profile.qerror ~est ~actual)
  in
  check "exact" 1.0 16.0 16;
  check "over by 10x" 10.0 100.0 10;
  check "under by 10x" 10.0 10.0 100;
  check "both clamped" 1.0 0.0 0;
  check "zero actual clamps" 8.0 8.0 0;
  check "zero estimate clamps" 8.0 0.0 8

(* ---------------- Profile ---------------- *)

let semijoin_plan () =
  Planner.plan
    (semijoin ~x:"s" ~y:"p"
       (exists "z" (var "s" $. "parts_supplied") (eq (var "z") (var "p" $. "oid")))
       (table "SUPPLIER")
       (select "p" (table "PART") (eq (var "p" $. "color") (str "red"))))

let test_profile_hand_built () =
  let cat = Util.small_catalog () in
  let plan = semijoin_plan () in
  let plain = Exec.run cat plan in
  let v, root = Profile.run cat plan in
  Alcotest.check Util.value "profiled = plain" plain v;
  Alcotest.(check int) "root rows" (Value.set_size plain) root.Profile.actual_rows;
  Alcotest.(check int) "one node per plan node" 4
    (List.length (Profile.preorder root));
  List.iter
    (fun (n : Profile.node) ->
      Alcotest.(check int) (n.label ^ " executed once") 1 n.calls;
      Alcotest.(check bool) (n.label ^ " est matches cost model") true
        (Float.equal n.est_rows
           (Njq_engine.Cost.rows_out ~stats:(Njq_engine.Stats.cached cat) cat
              n.plan));
      Alcotest.(check (float 1e-9))
        (n.label ^ " qerror consistent")
        (Profile.qerror ~est:n.est_rows ~actual:n.actual_rows)
        n.qerror;
      Alcotest.(check bool) (n.label ^ " qerror >= 1") true (n.qerror >= 1.0);
      Alcotest.(check bool) (n.label ^ " wall_ns >= 0") true (n.wall_ns >= 0))
    (Profile.preorder root);
  (* The semijoin node itself does the hash work. *)
  let root_work = root.Profile.work in
  Alcotest.(check bool) "root ticks hash counters" true
    (List.mem_assoc "hash_build" root_work && List.mem_assoc "hash_probe" root_work);
  (* The root owns the whole fused loop, so the scans' ticks land on its
     exclusive work. *)
  Alcotest.(check bool) "fused scan work lands on the loop owner" true
    (List.mem_assoc "scan_row" root_work)

(* The acceptance property: every node's non-perturbing actual equals the
   row count of executing its subtree alone, on the paper's query
   workload — planned without a catalog, and with one (join order, access
   paths, pointer-based member joins whose skipped scan is no child). *)
let test_profile_matches_subtree_rows () =
  let gcat =
    Njq_workload.Generator.catalog
      { Njq_workload.Generator.default_config with dangling_rate = 0.0 }
  in
  let pointer_joins = ref 0 in
  List.iter
    (fun ((q : Njq_workload.Queries.query), cat) ->
      let adl = Njq_workload.Queries.to_adl q in
      let plan = Planner.plan ?cat (Njq_core.Strategy.optimize gcat adl) in
      Njq_engine.Plan.iter_nodes
        (function
          | Njq_engine.Plan.MemberJoin { right = Njq_engine.Plan.Oid_index _; _ }
            ->
            incr pointer_joins
          | _ -> ())
        plan;
      let profiled, root = Profile.run gcat plan in
      Alcotest.check Util.value (q.id ^ " same result") (Exec.run gcat plan)
        profiled;
      let nodes = Profile.preorder root in
      let subtree_rows =
        List.map
          (fun (n : Profile.node) ->
            (n.label, List.length (Exec.rows gcat n.plan)))
          nodes
      in
      let prof_rows =
        List.map (fun (n : Profile.node) -> (n.label, n.actual_rows)) nodes
      in
      Alcotest.(check (list (pair string int)))
        (q.id ^ " per-node rows match subtree runs")
        subtree_rows prof_rows)
    (List.concat_map
       (fun q -> [ (q, None); (q, Some gcat) ])
       (Njq_workload.Queries.all @ Njq_workload.Queries.extended));
  Alcotest.(check bool) "the catalog plans probe oid indexes" true
    (!pointer_joins > 0)

(* Profiling must not perturb the work counters the run would tick bare. *)
let test_profile_non_perturbing_counters () =
  let cat = Util.small_catalog () in
  let plan = semijoin_plan () in
  let _, { Metrics.work = bare; _ } = Metrics.measure (fun () -> Exec.run cat plan) in
  let _, { Metrics.work = profiled; _ } =
    Metrics.measure (fun () -> fst (Profile.run cat plan))
  in
  Alcotest.(check (list (pair string int))) "same counters" bare profiled

(* The per-node minor words of a profiled run add up to what [measure]
   says the run allocated.  The run starts from an empty minor heap and
   fits in it, so a reading that undercounts the words since the last
   minor collection would show here in full.  At two domains a
   partitioned join's pairs run on the pool: the sum must include the
   worker's words, and the run must allocate as much as at one domain,
   where the same pairs run on the calling domain. *)
let test_profile_minor_words () =
  let cat =
    Njq_workload.Generator.catalog (Njq_workload.Generator.scaled ~seed:1 2048)
  in
  let join =
    Njq_engine.Plan.JoinOp
      { algo =
          Njq_engine.Plan.Partitioned { partitions = 8; mem_budget = max_int };
        kind = Expr.Semi; xvar = "s"; yvar = "d";
        keys = [ (var "s" $. "oid", var "d" $. "supplier") ];
        residual = Expr.true_; left = Njq_engine.Plan.Scan "SUPPLIER";
        right = Njq_engine.Plan.Scan "DELIVERY" }
  in
  let prev = Njq_engine.Pool.domains () in
  Fun.protect ~finally:(fun () -> Njq_engine.Pool.set_domains prev) @@ fun () ->
  let profiled ~domains plan =
    Njq_engine.Pool.set_domains domains;
    ignore (Exec.rows cat plan);
    Gc.minor ();
    let (_, samples), u =
      Metrics.measure (fun () -> Exec.collect (fun () -> Exec.rows cat plan))
    in
    let summed =
      List.fold_left
        (fun acc (s : Exec.node_sample) -> acc +. s.usage.minor_words)
        0.0 samples
    in
    if Float.abs (summed -. u.minor_words) > 0.1 *. u.minor_words then
      Alcotest.failf
        "%d domain(s): nodes sum to %.0f minor words, the run allocated %.0f"
        domains summed u.minor_words;
    u.minor_words
  in
  ignore (profiled ~domains:1 (semijoin_plan ()));
  let one = profiled ~domains:1 join in
  let two = profiled ~domains:2 join in
  if two < 0.9 *. one then
    Alcotest.failf "the join allocates %.0f minor words at 2 domains, %.0f at 1"
      two one

let () =
  Alcotest.run "obs"
    [ ( "json",
        [ Alcotest.test_case "round-trip" `Quick test_json_roundtrip;
          Alcotest.test_case "parse units" `Quick test_json_parse_units ] );
      ( "spans",
        [ Alcotest.test_case "nesting and ordering" `Quick test_span_nesting;
          Alcotest.test_case "disabled is no-op" `Quick test_span_disabled_is_noop;
          Alcotest.test_case "pipeline spans" `Quick test_pipeline_spans ] );
      ( "export",
        [ Alcotest.test_case "spans JSON well-formed" `Quick
            test_export_json_wellformed;
          Alcotest.test_case "chrome trace well-formed" `Quick
            test_chrome_trace_wellformed ] );
      ( "metrics",
        [ Alcotest.test_case "measure reports counter deltas" `Quick
            test_measure_counter_deltas;
          Alcotest.test_case "measure counts the pool's workers" `Quick
            test_measure_counts_workers;
          Alcotest.test_case "interned beats string tick" `Slow
            test_interned_beats_string ] );
      ( "profile",
        [ Alcotest.test_case "q-error math" `Quick test_qerror_math;
          Alcotest.test_case "hand-built plan" `Quick test_profile_hand_built;
          Alcotest.test_case "matches subtree rows on workload" `Quick
            test_profile_matches_subtree_rows;
          Alcotest.test_case "non-perturbing counters" `Quick
            test_profile_non_perturbing_counters;
          Alcotest.test_case "node minor words sum to the run's" `Quick
            test_profile_minor_words ] ) ]
