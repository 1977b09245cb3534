(* End-to-end benchmark of njq: OOSQL text to encoded JSON over linear,
   seeded NJQC catalogs, and the prepared-query serving path.

     main.exe --workload W --seed N --seconds S --trace 0|1
     main.exe --probe [--seed N]

   Workloads: adhoc, adhoc_par_spill, serve, and compile, which is run by
   hand and left out of BENCHMARK.json (README.md says why each exists
   and defines every metric).  The last line of standard
   output is one JSON object with the keys correct, attempted, failed and
   metrics: the end-to-end metrics with --trace 0, the per-layer metrics
   of a traced run with --trace 1.  --probe prints the exec-time scaling
   table instead. *)

open Njq_adl
module E = Njq_engine
module Q = Njq_workload.Queries
module Json = Njq_obs.Json
module Clock = Njq_obs.Clock
module T = Tracer

(* ---------- statistics ---------- *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then 0.0
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Nearest-rank percentile. *)
let percentile p xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then 0.0
  else
    a.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

let mean xs =
  match xs with
  | [] -> 0.0
  | _ -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let geomean xs = exp (mean (List.map log xs))
let ms ns = float_of_int ns /. 1e6

let timed f =
  let t0 = Clock.now_ns () in
  let r = f () in
  (r, Clock.elapsed_ns t0)

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* ---------- metrics ---------- *)

let end_to_end =
  [ ("setup_s", "s"); ("throughput_qps", "queries/s");
    ("query_geomean_ms", "ms"); ("latency_p50_ms", "ms");
    ("latency_p99_ms", "ms"); ("peak_heap_mb", "MB") ]

let per_layer =
  [ ("catalog.load_ms", "ms"); ("catalog.rows", "count");
    ("catalog.set_refs", "count"); ("stats.analyze_ms", "ms");
    ("catalog.index_ms", "ms"); ("serve.prepare_ms", "ms");
    ("oosql.parse_us", "us"); ("oosql.translate_us", "us");
    ("typecheck.us", "us"); ("rewrite.us", "us"); ("rewrite.steps", "count");
    ("plan.hoist_us", "us"); ("plan.us", "us");
    ("plan.joinorder_regions", "count"); ("plan.joinorder_considered", "count");
    ("plan.nl_fallbacks", "count"); ("exec.ms", "ms"); ("exec.rows_out", "count");
    ("exec.work", "count"); ("exec.scan_row", "count");
    ("exec.hash_probe", "count"); ("exec.nl_pair", "count");
    ("exec.oid_lookup", "count"); ("exec.minor_words", "words");
    ("exec.rows_per_work", "ratio"); ("exec.spill_bytes", "bytes");
    ("exec.spill_part", "count"); ("pool.par_task_ms", "ms");
    ("encode.ms", "ms"); ("encode.bytes", "bytes");
    ("serve.queue_p50_ms", "ms"); ("serve.queue_p99_ms", "ms");
    ("serve.service_p50_ms", "ms"); ("serve.service_p99_ms", "ms");
    ("serve.batch_mean", "count"); ("plancache.hits", "count");
    ("plancache.misses", "count"); ("gc.major_collections", "count");
    ("trace.overhead_pct", "%"); ("trace.coverage_pct", "%") ]

let metrics : (string, float) Hashtbl.t = Hashtbl.create 64
let set name v = Hashtbl.replace metrics name v

(* Failures: an exception or a wrong result, against every operation
   attempted (checks included). *)
let attempted = ref 0
let failed = ref 0

let attempt what f =
  incr attempted;
  match f () with
  | true -> ()
  | false ->
    incr failed;
    Printf.eprintf "wrong result: %s\n%!" what
  | exception e ->
    incr failed;
    Printf.eprintf "failed: %s: %s\n%!" what (Printexc.to_string e)

(* ---------- workloads ---------- *)

type kind = Adhoc | Serve | Compile

type spec = {
  name : string;
  kind : kind;
  rows : int;  (** rows per extent *)
  domains : int;
  budget_share : float option;  (** memory budget, as a share of an extent *)
  setup_samples : int;  (** set-up samples per run; [setup_s] is their median *)
  setup_batch : int;  (** set-ups per sample; a sample is their mean *)
  settle : bool;  (** full major GC before each timed query or serving round *)
}

let specs =
  [ { name = "adhoc"; kind = Adhoc; rows = 25_000; domains = 1;
      budget_share = None; setup_samples = 7; setup_batch = 1; settle = true };
    { name = "adhoc_par_spill"; kind = Adhoc; rows = 25_000; domains = 2;
      budget_share = Some 0.1; setup_samples = 7; setup_batch = 1; settle = true };
    { name = "serve"; kind = Serve; rows = 25_000; domains = 1;
      budget_share = None; setup_samples = 5; setup_batch = 1; settle = true };
    { name = "compile"; kind = Compile; rows = 64; domains = 1;
      budget_share = None; setup_samples = 7; setup_batch = 32; settle = false } ]

(* Rows per extent of the small catalog the oracle checks run on. *)
let check_rows = 256

let apply_policies spec rows =
  E.Pool.set_domains spec.domains;
  E.Memory.budget :=
    match spec.budget_share with
    | None -> max_int
    | Some s -> max 1 (int_of_float (s *. float_of_int rows))

(* ---------- the text -> JSON path ---------- *)

let adl_of text =
  fst (Njq_oosql.Translate.query Q.schema (Njq_oosql.Parser.parse_query text))

(* Parse, translate, typecheck, rewrite, hoist and plan, afresh (never
   through the plan cache). *)
let derive cat text =
  let ast = T.span "oosql.parse" (fun () -> Njq_oosql.Parser.parse_query text) in
  let adl, _ =
    T.span "oosql.translate" (fun () -> Njq_oosql.Translate.query Q.schema ast)
  in
  (match T.span "typecheck" (fun () -> Typecheck.check_closed cat adl) with
   | Ok _ -> ()
   | Error msg -> failwith ("typecheck: " ^ msg));
  let report = T.span "rewrite" (fun () -> Njq_core.Strategy.rewrite cat adl) in
  let hoisted =
    T.span "plan.hoist" (fun () ->
        E.Consthoist.hoist cat report.Njq_core.Strategy.output)
  in
  let plan = T.span "plan" (fun () -> E.Planner.plan ~cat hoisted) in
  (report, plan)

let query_layers =
  [ "oosql.parse"; "oosql.translate"; "typecheck"; "rewrite"; "plan.hoist";
    "plan"; "exec"; "encode" ]

let run_text cat text =
  let _, plan = derive cat text in
  let v = T.span "exec" (fun () -> T.with_work (fun () -> E.Exec.run cat plan)) in
  let json = T.span "encode" (fun () -> Serialize.value_to_json v) in
  T.add "rows" (float_of_int (Value.set_size v));
  T.add "bytes" (float_of_int (String.length json));
  (v, json)

(* Plan-shape census of one query, taken outside any timed region. *)
type census = { steps : int; nl : int; regions : int; considered : int }

let nl_fallbacks plan =
  let n = ref 0 in
  E.Plan.iter_nodes
    (function
      | E.Plan.JoinOp { algo = E.Plan.Nested_loop; keys = []; _ }
      | E.Plan.NestjoinOp { algo = E.Plan.Nested_loop; keys = []; _ } -> incr n
      | _ -> ())
    plan;
  !n

let census cat text =
  let report, plan = derive cat text in
  let regions = !E.Joinorder.last_report in
  { steps = Njq_core.Strategy.step_count report;
    nl = nl_fallbacks plan;
    regions = List.length regions;
    considered =
      List.fold_left (fun acc r -> acc + r.E.Joinorder.considered) 0 regions }

(* A query's base id: its id up to any ['#'] (literal variants share it). *)
let base id = List.hd (String.split_on_char '#' id)

(* Group [(id, x)] pairs by base id, in first-appearance order. *)
let by_base pairs =
  let bases =
    List.fold_left
      (fun acc (id, _) -> if List.mem (base id) acc then acc else base id :: acc)
      [] pairs
  in
  List.rev_map
    (fun b -> (b, List.filter_map (fun (id, x) -> if base id = b then Some x else None) pairs))
    bases

let add_census a b =
  { steps = a.steps + b.steps; nl = a.nl + b.nl; regions = a.regions + b.regions;
    considered = a.considered + b.considered }

let no_census = { steps = 0; nl = 0; regions = 0; considered = 0 }

(* Take the census of every item, print it per base query and record the
   totals over all items. *)
let record_census cat items =
  let cs =
    Array.to_list items
    |> List.filter_map (fun (id, text) ->
           let c = ref None in
           attempt ("census " ^ id) (fun () ->
               c := Some (id, census cat text);
               true);
           !c)
  in
  List.iter
    (fun (b, group) ->
      let c = List.fold_left add_census no_census group in
      Printf.printf
        "census %-9s rewrite.steps %4d  plan.nl_fallbacks %2d  joinorder regions %2d considered %4d\n"
        b c.steps c.nl c.regions c.considered)
    (by_base cs);
  let t = List.fold_left (fun acc (_, c) -> add_census acc c) no_census cs in
  set "rewrite.steps" (float_of_int t.steps);
  set "plan.nl_fallbacks" (float_of_int t.nl);
  set "plan.joinorder_regions" (float_of_int t.regions);
  set "plan.joinorder_considered" (float_of_int t.considered)

(* ---------- set-up ---------- *)

type param = Price | Sname

(* Prepared templates of the serve workload, with the kind of their one
   parameter. *)
let serve_templates =
  [| ( "nestjoin",
       {|select (sname = s.sname,
         pnames = select p.pname from p in PART where p.oid in s.parts_supplied)
  from s in SUPPLIER where s.sname = ?0|},
       Sname );
     ("point", {|select p.pname from p in PART where p.price = ?0|}, Price);
     ( "semijoin",
       {|select s.sname from s in SUPPLIER
  where s.sname = ?0 and
        exists z in s.parts_supplied : exists p in PART : z = p.oid and p.color = "red"|},
       Sname ) |]

(* The traffic shape of [njq serve]'s defaults: a batching window of 16
   and 16 outstanding invocations (its 4 clients x bursts of 4), here held
   by one client domain so the client and the scheduler fill two cores.
   A serving round is one [Serve.run] of [serve_round] invocations; the
   heap is settled, unmeasured, between rounds. *)
let serve_window = 16
let serve_burst = 16
let serve_round = 256

let draw_param rng rows = function
  | Price -> Value.int (1 + Random.State.int rng 500)
  | Sname -> Value.string (Printf.sprintf "s%d" (Random.State.int rng rows))

let declare_indexes cat =
  List.iter
    (fun (table, attr) ->
      ignore
        (Catalog.create_index cat ~table ~kind:Catalog.Hash_index ~attrs:[ attr ] ()))
    [ ("PART", "price"); ("SUPPLIER", "sname") ]

(* Prepare every template and run each plan shape once (one invocation,
   one two-invocation batch), so the first timed request finds both plans
   cached. *)
let prepare_templates cat rows =
  let translate text = Njq_core.Strategy.optimize cat (adl_of text) in
  let rng = Random.State.make [| rows |] in
  Array.map
    (fun (_, text, p) ->
      let h = E.Serve.prepare cat ~options:"perfbench" ~translate text in
      let draw () = [ draw_param rng rows p ] in
      ignore (E.Serve.exec_one h (draw ()));
      ignore (E.Serve.exec_batch h [ draw (); draw () ]);
      h)
    serve_templates

type setup = { cat : Catalog.t; handles : E.Serve.prepared array }

let setup_once spec path =
  let cat, load = timed (fun () -> Catalogs.load path) in
  let (), index = timed (fun () -> if spec.kind = Serve then declare_indexes cat) in
  let _, stats = timed (fun () -> E.Stats.cached cat) in
  let handles, prepare =
    timed (fun () -> if spec.kind = Serve then prepare_templates cat spec.rows else [||])
  in
  ( { cat; handles },
    [ ("catalog.load_ms", load); ("catalog.index_ms", index);
      ("stats.analyze_ms", stats); ("serve.prepare_ms", prepare) ] )

(* Set up [spec.setup_samples] samples of [spec.setup_batch] set-ups
   each, every sample from a compacted heap.  A sample is the mean over
   its set-ups, so a set-up of well under a millisecond (compile) is
   timed over many; [setup_s] and each part are medians over the
   samples. *)
let setup spec path =
  let last = ref None and totals = ref [] and parts = ref [] in
  for _ = 1 to spec.setup_samples do
    last := None;
    Gc.compact ();
    let sums = Hashtbl.create 4 in
    for _ = 1 to spec.setup_batch do
      let s, ps = setup_once spec path in
      last := Some s;
      List.iter
        (fun (name, ns) ->
          Hashtbl.replace sums name (ns + Option.value ~default:0 (Hashtbl.find_opt sums name)))
        ps
    done;
    let ps =
      Hashtbl.fold (fun name ns acc -> (name, ns / spec.setup_batch) :: acc) sums []
    in
    totals := (float_of_int (List.fold_left (fun acc (_, ns) -> acc + ns) 0 ps) /. 1e9) :: !totals;
    parts := ps :: !parts
  done;
  set "setup_s" (median !totals);
  List.iter
    (fun (name, _) ->
      set name (median (List.map (fun ps -> ms (List.assoc name ps)) !parts)))
    (List.hd !parts);
  let s = Option.get !last in
  let rows_total = ref 0 and refs_total = ref 0 in
  List.iter
    (fun (table, n, refs) ->
      Printf.printf "catalog %-9s rows %7d  set_refs %7d\n" table n refs;
      rows_total := !rows_total + n;
      refs_total := !refs_total + refs)
    (Catalogs.census s.cat);
  set "catalog.rows" (float_of_int !rows_total);
  set "catalog.set_refs" (float_of_int !refs_total);
  s

(* ---------- timed phases ---------- *)

(* Closed loop, one client: whole passes over items [0, n), each in a
   fresh seeded order, until a pass ends after [seconds] of measured time,
   so every item runs equally often, or a pass has no success at all.
   [settle ()] runs unmeasured before each item; [exec i] runs item [i]
   and returns its latency in ns, [None] when it failed.  Returns each
   item's latency samples. *)
let closed_loop ~rng ~seconds ~settle n exec =
  let samples = Array.make n [] in
  let budget = int_of_float (seconds *. 1e9) and measured = ref 0 in
  let order = Array.init n Fun.id in
  let continue = ref true in
  while !continue do
    shuffle rng order;
    let ok = ref false in
    Array.iter
      (fun i ->
        settle ();
        let r, ns = timed (fun () -> exec i) in
        measured := !measured + ns;
        Option.iter
          (fun ns ->
            ok := true;
            samples.(i) <- ns :: samples.(i))
          r)
      order;
    continue := !ok && !measured < budget
  done;
  samples

type summary = {
  geomean_ms : float;
  p50_ms : float;
  p99_ms : float;
  qps : float;
  samples : int;  (** latency samples the percentiles are over *)
  runs : int;  (** completed queries or invocations *)
}

(* [groups]: latency samples in ns, one list per distinct query or
   template; [busy_ns]: time spent inside the system.  With [pooled]
   (serving), the latency percentiles are over every sample, one per
   invocation, and a template's latency is its mean: an invocation's
   queue wait depends on whether its batch runs before or after another
   template's, so a template's median jumps between those modes.
   Otherwise the percentiles are over the per-query medians, so
   each query of a corpus weighs the same. *)
let summarize ~pooled groups busy_ns =
  let all = List.concat_map (List.map ms) groups in
  let typical =
    List.filter_map
      (function [] -> None | s -> Some ((if pooled then mean else median) (List.map ms s)))
      groups
  in
  let dist = if pooled then all else typical in
  { geomean_ms = geomean typical;
    p50_ms = median dist;
    p99_ms = percentile 0.99 dist;
    qps = float_of_int (List.length all) /. (float_of_int busy_ns /. 1e9);
    samples = List.length dist;
    runs = List.length all }

let record_summary s =
  set "throughput_qps" s.qps;
  set "query_geomean_ms" s.geomean_ms;
  set "latency_p50_ms" s.p50_ms;
  set "latency_p99_ms" s.p99_ms;
  Printf.printf "runs %d; latency samples %d (%d beyond p99)\n" s.runs s.samples
    (s.samples - int_of_float (Float.ceil (0.99 *. float_of_int s.samples)))

(* Run [phase seconds] untraced, or, for the traced run, untraced and then
   traced for half the time each, recording the plan-cache deltas of the
   traced half.  Returns the untraced and (if any) the traced summary. *)
let phases ~trace ~seconds phase =
  if not trace then (phase seconds, None)
  else begin
    let untraced = phase (seconds /. 2.0) in
    T.reset ();
    let h0 = E.Plancache.hits () and m0 = E.Plancache.misses () in
    T.on := true;
    let traced = phase (seconds /. 2.0) in
    T.on := false;
    set "plancache.hits" (float_of_int (E.Plancache.hits () - h0));
    set "plancache.misses" (float_of_int (E.Plancache.misses () - m0));
    (untraced, Some traced)
  end

(* Per-layer self time, calls and share of the traced time, per base
   query (or serving) and in total; records [trace.coverage_pct]. *)
let print_layers layers =
  let row label ns calls request =
    Printf.printf "  %-16s self %11.3f ms  calls %7d  share %6.2f%%\n" label (ms ns)
      calls (100.0 *. float_of_int ns /. float_of_int (max 1 request))
  in
  let sum keys f = List.fold_left (fun acc k -> acc + f k) 0 keys in
  let report title keys =
    Printf.printf "layers %s\n" title;
    let request = sum keys (fun k -> T.ns k "request") in
    let covered = sum keys (fun k -> sum layers (T.ns k)) in
    List.iter (fun l -> row l (sum keys (fun k -> T.ns k l)) (sum keys (fun k -> T.calls k l)) request) layers;
    row "(harness)" (request - covered) (sum keys (fun k -> T.calls k "request")) request;
    100.0 *. float_of_int covered /. float_of_int (max 1 request)
  in
  let keys = T.keys () in
  List.iter
    (fun (b, ks) -> ignore (report b ks))
    (by_base (List.map (fun k -> (k, k)) keys));
  set "trace.coverage_pct" (report "(all)" keys)

(* Per-layer metrics of the query workloads: every time and count is the
   mean per execution of one query, averaged over the distinct queries. *)
let record_query_layers () =
  let keys = T.keys () in
  let over f = mean (List.map f keys) in
  let per_exec k x = x /. float_of_int (max 1 (T.calls k "exec")) in
  let us l = over (fun k -> T.mean_ns k l /. 1e3) in
  set "oosql.parse_us" (us "oosql.parse");
  set "oosql.translate_us" (us "oosql.translate");
  set "typecheck.us" (us "typecheck");
  set "rewrite.us" (us "rewrite");
  set "plan.hoist_us" (us "plan.hoist");
  set "plan.us" (us "plan");
  set "exec.ms" (us "exec" /. 1e3);
  set "encode.ms" (us "encode" /. 1e3);
  let count name = over (fun k -> per_exec k (T.sum k name)) in
  set "exec.rows_out" (count "rows");
  set "encode.bytes" (count "bytes");
  set "exec.work" (count "work");
  set "exec.minor_words" (count "minor_words");
  set "gc.major_collections" (count "major_collections");
  set "pool.par_task_ms" (count "par_task_ns" /. 1e6);
  List.iter
    (fun c -> set ("exec." ^ c) (count ("work." ^ c)))
    [ "scan_row"; "hash_probe"; "nl_pair"; "oid_lookup"; "spill_bytes"; "spill_part" ];
  set "exec.rows_per_work" (count "rows" /. Float.max 1.0 (count "work"))

(* ---------- query workloads (adhoc, adhoc_par_spill, compile) ---------- *)

(* Closed-loop phase over [items] on [cat]; [check i v json] validates
   item [i]'s result, and a failed check drops the sample.  With
   [spec.settle], a full major GC before each query starts it from a
   clean heap, as a fresh process would. *)
let query_phase ~rng spec cat items check seconds =
  let settle () = if spec.settle then Gc.full_major () in
  let groups =
    closed_loop ~rng ~seconds ~settle (Array.length items) (fun i ->
        let id, text = items.(i) in
        let r = ref None in
        attempt id (fun () ->
            let (v, json), ns =
              timed (fun () -> T.request id (fun () -> run_text cat text))
            in
            let ok = check i v json in
            if ok then r := Some ns;
            ok);
        !r)
  in
  List.iter
    (fun (b, gs) ->
      let xs = List.concat_map (List.map ms) gs in
      Printf.printf "query %-9s runs %5d  median %10.3f ms  min %10.3f ms  max %10.3f ms\n"
        b (List.length xs) (median xs)
        (List.fold_left Float.min infinity xs)
        (List.fold_left Float.max 0.0 xs))
    (by_base (Array.to_list (Array.mapi (fun i g -> (fst items.(i), g)) groups)));
  let groups = Array.to_list groups in
  summarize ~pooled:false groups (List.fold_left (fun acc s -> List.fold_left ( + ) acc s) 0 groups)

let run_queries ~trace ~seconds ~rng spec cat items check =
  let untraced, traced =
    phases ~trace ~seconds (query_phase ~rng spec cat items check)
  in
  record_summary untraced;
  Option.iter
    (fun t ->
      print_layers query_layers;
      record_query_layers ();
      set "trace.overhead_pct" (100.0 *. ((t.geomean_ms /. untraced.geomean_ms) -. 1.0)))
    traced

(* Each query on the small catalog against the reference evaluator. *)
let oracle_check ~seed spec items =
  let small = Njq_workload.Generator.catalog (Catalogs.config ~seed check_rows) in
  apply_policies spec check_rows;
  Array.iter
    (fun (id, text) ->
      attempt (id ^ " against Eval") (fun () ->
          Value.equal (fst (run_text small text)) (Eval.run small (adl_of text))))
    items

let adhoc_items =
  Array.of_list
    (List.map
       (fun id ->
         let q = Q.find id in
         (q.Q.id, q.Q.oosql))
       [ "EQ1"; "EQ2"; "EQ3.1"; "EQ3.2"; "EQ4"; "EQ5"; "EQ6"; "EQ8"; "EQ9" ])

(* Result digests must agree on every pass, and across adhoc and
   adhoc_par_spill through a per-seed file of this build's cache. *)
let adhoc ~seed ~seconds ~trace spec =
  oracle_check ~seed spec adhoc_items;
  let path = Catalogs.path ~seed spec.rows in
  apply_policies spec spec.rows;
  let s = setup spec path in
  record_census s.cat adhoc_items;
  let digests = Array.make (Array.length adhoc_items) None in
  let check i _ json =
    let d = Digest.string json in
    match digests.(i) with
    | None ->
      digests.(i) <- Some d;
      true
    | Some d' -> Digest.equal d d'
  in
  run_queries ~trace ~seconds ~rng:(Random.State.make [| seed |]) spec s.cat adhoc_items check;
  let file = Catalogs.file (Printf.sprintf "digests-s%d" seed) in
  let mine =
    Array.to_list
      (Array.mapi
         (fun i (id, _) ->
           id ^ " " ^ Option.fold ~none:"-" ~some:Digest.to_hex digests.(i))
         adhoc_items)
  in
  if Sys.file_exists file then begin
    let theirs = In_channel.with_open_text file In_channel.input_lines in
    List.iter2
      (fun m t -> attempt ("digest " ^ m) (fun () -> String.equal m t))
      mine theirs
  end
  else Out_channel.with_open_text file (fun oc -> List.iter (Printf.fprintf oc "%s\n") mine)

(* Replace every occurrence of [pat] in [s] with a fresh [f ()]. *)
let replace_all pat f s =
  let b = Buffer.create (String.length s) and n = String.length pat in
  let i = ref 0 in
  while !i < String.length s do
    if !i + n <= String.length s && String.sub s !i n = pat then begin
      Buffer.add_string b (f ());
      i := !i + n
    end
    else begin
      Buffer.add_char b s.[!i];
      incr i
    end
  done;
  Buffer.contents b

let multi_range =
  [ ( "MR4",
      {|select (sname = s.sname, pname = p.pname)
  from d in DELIVERY, s in SUPPLIER, u in d.supply, p in PART
  where d.supplier = s.oid and u.part = p.oid and p.color = "red"|} );
    ( "MR3",
      {|select (d = d.oid, q = u.quantity)
  from d in DELIVERY, p in PART, u in d.supply
  where u.part = p.oid and p.price < 100 and u.quantity > 50|} );
    ( "MR3S",
      {|select (s = s.sname, d = d.oid)
  from s in SUPPLIER, d in DELIVERY, u in d.supply
  where d.supplier = s.oid and u.quantity > 50|} );
    ( "MR2",
      {|select s.sname from s in SUPPLIER, d in DELIVERY
  where d.supplier = s.oid and d.date = 940105|} );
    ( "MRZ",
      {|select (s = s.sname, p = p.pname)
  from s in SUPPLIER, p in PART, z in s.parts_supplied
  where z = p.oid and p.color = "blue"|} ) ]

(* Eight seeded literal variants of each corpus query EQ1-EQ9 and each
   multi-range query.  Repeated texts stay, so every base query weighs
   the same in every seed's set. *)
let compile_items ~seed rows =
  let rng = Random.State.make [| seed; rows |] in
  let pick a = a.(Random.State.int rng (Array.length a)) in
  let color () = Printf.sprintf "%S" (pick [| "red"; "green"; "blue"; "yellow"; "black" |]) in
  let sname () = Printf.sprintf "\"s%d\"" (Random.State.int rng rows) in
  let date () = string_of_int (940101 + Random.State.int rng 28) in
  let bound lo hi () = string_of_int (lo + Random.State.int rng (hi - lo)) in
  let variant text =
    text
    |> replace_all {|"red"|} color
    |> replace_all {|"blue"|} color
    |> replace_all {|"s0"|} sname
    |> replace_all {|"s1"|} sname
    |> replace_all "940101" date
    |> replace_all "940105" date
    |> replace_all "> 50" (fun () -> "> " ^ bound 10 90 ())
    |> replace_all "< 100" (fun () -> "< " ^ bound 50 450 ())
  in
  let corpus = List.map (fun q -> (q.Q.id, q.Q.oosql)) (Q.all @ Q.extended) in
  Array.of_list
    (List.concat_map
       (fun (id, text) ->
         List.mapi
           (fun i t -> (Printf.sprintf "%s#%d" id i, t))
           (List.init 8 (fun _ -> variant text)))
       (corpus @ multi_range))

let compile ~seed ~seconds ~trace spec =
  apply_policies spec spec.rows;
  let s = setup spec (Catalogs.path ~seed spec.rows) in
  let items = compile_items ~seed spec.rows in
  Printf.printf "compile: %d queries, %d distinct texts\n" (Array.length items)
    (List.length (List.sort_uniq String.compare (Array.to_list (Array.map snd items))));
  record_census s.cat items;
  let oracle =
    Array.map
      (fun (id, text) ->
        match Eval.run s.cat (adl_of text) with
        | v -> Some v
        | exception e ->
          attempt ("Eval " ^ id) (fun () -> raise e);
          None)
      items
  in
  let check i v _ = match oracle.(i) with Some o -> Value.equal v o | None -> false in
  run_queries ~trace ~seconds ~rng:(Random.State.make [| seed |]) spec s.cat items check

(* ---------- serve ---------- *)

let literal = function
  | Value.VInt n -> string_of_int n
  | Value.VString s -> Printf.sprintf "%S" s
  | v -> Value.show v

(* The orders of the three templates.  The scheduler batches each
   template's share of a burst and runs the batches in the order the
   templates first appear, so an invocation's queue wait depends on how
   many batches run before its own. *)
let serve_orders =
  [| [| 0; 1; 2 |]; [| 0; 2; 1 |]; [| 1; 0; 2 |]; [| 1; 2; 0 |]; [| 2; 0; 1 |]; [| 2; 1; 0 |] |]

(* [bursts] bursts of invocations, a template and a seeded parameter value
   each.  A burst holds the templates in equal shares (the slot left over
   moves on from burst to burst), grouped in one of [serve_orders]; the
   orders take turns from a seeded first one, so every template waits
   behind every other equally often whatever the seed. *)
let mix ~seed rows bursts =
  let rng = Random.State.make [| seed; rows |] in
  let nt = Array.length serve_templates in
  let first = Random.State.int rng (Array.length serve_orders) in
  Array.concat
    (List.init bursts (fun b ->
         let share t =
           List.length
             (List.filter (fun i -> ((b * serve_burst) + i) mod nt = t)
                (List.init serve_burst Fun.id))
         in
         let order = serve_orders.((first + b) mod Array.length serve_orders) in
         Array.concat
           (Array.to_list
              (Array.map
                 (fun t ->
                   let _, _, p = serve_templates.(t) in
                   Array.init (share t) (fun _ -> (t, [ draw_param rng rows p ])))
                 order))))

(* One [Serve.run] of one client over [requests] invocations of [mix]
   from [base], cycling. *)
let serve_round_run handles mix base requests =
  let params ~client:_ ~seq =
    let t, ps = mix.((base + seq) mod Array.length mix) in
    (handles.(t), ps)
  in
  E.Serve.run ~batching:true ~window:serve_window ~burst:serve_burst ~clients:1
    ~requests ~params ()

(* Every template's replies on the small catalog against the reference
   evaluator, through batched serving. *)
let serve_oracle_check ~seed spec =
  let small = Njq_workload.Generator.catalog (Catalogs.config ~seed check_rows) in
  apply_policies spec check_rows;
  declare_indexes small;
  let handles = prepare_templates small check_rows in
  let m = mix ~seed check_rows (serve_round / serve_burst) in
  match serve_round_run handles m 0 serve_round with
  | replies ->
    List.iter
      (fun (r : E.Serve.reply) ->
        let t, ps = m.(r.seq) in
        let name, text, _ = serve_templates.(t) in
        attempt (name ^ " reply against Eval") (fun () ->
            let text = replace_all "?0" (fun () -> literal (List.hd ps)) text in
            Value.equal r.value (Eval.run small (adl_of text))))
      replies
  | exception e -> attempt "serve on the small catalog" (fun () -> raise e)

let serve ~seed ~seconds ~trace spec =
  serve_oracle_check ~seed spec;
  let rows = spec.rows in
  apply_policies spec rows;
  let s = setup spec (Catalogs.path ~seed rows) in
  record_census s.cat
    (Array.map (fun (name, text, _) -> (name, text)) serve_templates);
  let m = mix ~seed rows (16 * serve_round / serve_burst) in
  (* The first reply per (template, parameter) is the reference for every
     later one. *)
  let seen = Hashtbl.create 1024 in
  let base = ref 0 in
  let queue = ref [] and service = ref [] and inv_batches = ref 0.0 in
  let exec_ns = ref 0 and rows_out = ref 0 in
  (* Rounds run until [seconds] of measured time have passed and at least
     1000 invocations, so p99 has 10 samples beyond it. *)
  let phase seconds =
    let groups = Array.make (Array.length serve_templates) [] in
    let busy = ref 0 and broken = ref false and start = !base in
    while
      (not !broken) && (!busy < int_of_float (seconds *. 1e9) || !base - start < 1000)
    do
      if spec.settle then Gc.full_major ();
      let b = !base in
      base := b + serve_round;
      let t0 = Clock.now_ns () in
      match
        T.request "serve" (fun () ->
            T.span "serve.run" (fun () ->
                T.with_work (fun () -> serve_round_run s.handles m b serve_round)))
      with
      | exception e ->
        broken := true;
        for _ = 1 to serve_round do
          attempt "serve round" (fun () -> raise e)
        done
      | replies ->
        busy := !busy + Clock.elapsed_ns t0;
        List.iter
          (fun (r : E.Serve.reply) ->
            let t, ps = m.((b + r.seq) mod Array.length m) in
            let ok = ref false in
            attempt (Printf.sprintf "serve %d" t) (fun () ->
                (match Hashtbl.find_opt seen (t, ps) with
                 | Some v -> ok := Value.equal v r.value
                 | None ->
                   Hashtbl.replace seen (t, ps) r.value;
                   ok := true);
                !ok);
            if !ok then begin
              groups.(t) <- (r.queue_ns + r.service_ns) :: groups.(t);
              if !T.on then begin
                queue := ms r.queue_ns :: !queue;
                service := ms r.service_ns :: !service;
                inv_batches := !inv_batches +. (1.0 /. float_of_int r.batch);
                exec_ns := !exec_ns + (r.service_ns / r.batch);
                rows_out := !rows_out + Value.set_size r.value
              end
            end)
          replies
    done;
    Array.iteri
      (fun t g ->
        let name, _, _ = serve_templates.(t) in
        Printf.printf "template %-9s invocations %6d  median %9.3f ms  p99 %9.3f ms\n" name
          (List.length g) (median (List.map ms g)) (percentile 0.99 (List.map ms g)))
      groups;
    summarize ~pooled:true (Array.to_list groups) !busy
  in
  let untraced, traced = phases ~trace ~seconds phase in
  record_summary untraced;
  Option.iter
    (fun t ->
      print_layers [ "serve.run" ];
      let n = float_of_int (max 1 t.runs) in
      let per_inv name = T.sum "serve" name /. n in
      set "serve.queue_p50_ms" (median !queue);
      set "serve.queue_p99_ms" (percentile 0.99 !queue);
      set "serve.service_p50_ms" (median !service);
      set "serve.service_p99_ms" (percentile 0.99 !service);
      set "serve.batch_mean" (n /. Float.max 1.0 !inv_batches);
      set "exec.ms" (ms !exec_ns /. n);
      set "exec.work" (per_inv "work");
      set "exec.rows_out" (float_of_int !rows_out /. n);
      set "exec.rows_per_work" (float_of_int !rows_out /. Float.max 1.0 (T.sum "serve" "work"));
      set "exec.minor_words" (per_inv "minor_words");
      set "gc.major_collections" (per_inv "major_collections");
      List.iter
        (fun c -> set ("exec." ^ c) (per_inv ("work." ^ c)))
        [ "scan_row"; "hash_probe"; "nl_pair"; "oid_lookup"; "spill_bytes"; "spill_part" ];
      set "trace.overhead_pct" (100.0 *. ((untraced.qps /. t.qps) -. 1.0)))
    traced

(* ---------- scaling probe ---------- *)

(* Exec time of each adhoc query at three linear scales, per input row
   (rows over all extents): the median of three executions, each from a
   collected heap.  A one-off table for README.md, not part of the
   check. *)
let probe ~seed =
  E.Pool.set_domains 1;
  let scales = [ 25_000; 50_000; 100_000 ] in
  Printf.printf "%-6s" "query";
  List.iter (fun n -> Printf.printf " %14s" (Printf.sprintf "ns/row@%d" n)) scales;
  print_newline ();
  let table =
    List.map
      (fun n ->
        let cat = Catalogs.load (Catalogs.path ~seed n) in
        ignore (E.Stats.cached cat);
        let row_count =
          List.fold_left (fun acc name -> acc + Catalog.cardinality cat name) 0
            (Catalog.table_names cat)
        in
        let r =
          Array.map
            (fun (_, text) ->
              let _, plan = derive cat text in
              let once () =
                Gc.full_major ();
                float_of_int (snd (timed (fun () -> E.Exec.run cat plan)))
              in
              median (List.init 3 (fun _ -> once ())) /. float_of_int row_count)
            adhoc_items
        in
        Gc.compact ();
        r)
      scales
  in
  Array.iteri
    (fun i (id, _) ->
      Printf.printf "%-6s" id;
      List.iter (fun r -> Printf.printf " %14.1f" r.(i)) table;
      print_newline ())
    adhoc_items

(* ---------- main ---------- *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let probe_mode = ref false in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "W adhoc|adhoc_par_spill|serve|compile");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S length of the timed phase");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--probe", Arg.Set probe_mode, " print the exec-time scaling table") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload W --seed N --seconds S --trace 0|1";
  if !probe_mode then probe ~seed:!seed
  else begin
    let spec =
      match List.find_opt (fun s -> s.name = !workload) specs with
      | Some s -> s
      | None ->
        Printf.eprintf "unknown workload %S\n" !workload;
        exit 2
    in
    let seed = !seed and seconds = !seconds and trace = !trace = 1 in
    (* A failure outside any checked operation (a catalog that will not
       load, say) still ends in a result, with the failure counted. *)
    attempt spec.name (fun () ->
        (match spec.kind with
         | Adhoc -> adhoc ~seed ~seconds ~trace spec
         | Compile -> compile ~seed ~seconds ~trace spec
         | Serve -> serve ~seed ~seconds ~trace spec);
        true);
    set "peak_heap_mb"
      (float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
       /. 1048576.0);
    let reported = if trace then per_layer else end_to_end in
    List.iter
      (fun (name, unit) ->
        Printf.printf "%-28s %16.4f %s\n" name
          (Option.value ~default:0.0 (Hashtbl.find_opt metrics name))
          unit)
      reported;
    Printf.printf "%-28s %16.4f (%d failed / %d attempted)\n" "failed_ratio"
      (float_of_int !failed /. float_of_int (max 1 !attempted))
      !failed !attempted;
    if trace then
      Out_channel.with_open_text
        (Catalogs.file (Printf.sprintf "trace-%s-s%d.json" spec.name seed))
        (fun oc -> output_string oc (Json.to_string (T.to_json ())));
    print_endline
      (Json.to_string
         (Json.Obj
            [ ("correct", Json.Bool (!failed = 0));
              ("attempted", Json.Int !attempted);
              ("failed", Json.Int !failed);
              ( "metrics",
                Json.Obj
                  (List.map
                     (fun (name, unit) ->
                       ( name,
                         Json.Obj
                           [ ( "value",
                               Json.Float
                                 (Option.value ~default:0.0
                                    (Hashtbl.find_opt metrics name)) );
                             ("unit", Json.Str unit) ] ))
                     reported) ) ]))
  end
