(* Benchmark harness: one experiment per motivating claim of the paper
   (DESIGN.md experiment index).

   The paper has no measured evaluation section — its tables and figures are
   semantic artifacts regenerated by bin/paper_artifacts.exe — so the
   benches here validate the paper's qualitative performance claims:
   set-oriented join processing beats tuple-oriented nested loops, the
   nestjoin implements grouping queries efficiently and correctly, PNHL
   beats unnest-join-nest for set-valued attribute materialization,
   and pointer-based assembly beats value joins for path expressions.

   Two kinds of output per experiment:
   - a deterministic WORK table (operation counters) over a scale sweep —
     the paper-shaped evidence: who wins and how the gap grows;
   - Bechamel wall-clock estimates (one Test.make per variant, grouped per
     experiment) at a fixed scale.

   Usage: main [--work-only | --time-only] [--scale N] [--json]
               [--out FILE] [experiment ids...]

   [--json] additionally writes BENCH_engine.json (or FILE) with the
   per-experiment counter totals and wall-clock estimates. *)

open Njq_adl
open Dsl
open Bechamel
open Toolkit
module Gen = Njq_workload.Generator
module Queries = Njq_workload.Queries
module Strategy = Njq_core.Strategy
module Planner = Njq_engine.Planner
module Exec = Njq_engine.Exec
module Plan = Njq_engine.Plan
module Pool = Njq_engine.Pool
module Serve = Njq_engine.Serve
module Metrics = Njq_obs.Metrics
module Json = Njq_obs.Json

let scales = ref [ 32; 64; 128; 256 ]
let bench_scale = ref 128
let json_out = ref "BENCH_engine.json"

(* ------------------------------------------------------------------ *)
(* Reporting helpers                                                   *)
(* ------------------------------------------------------------------ *)

(* Per-variant measurement record for the work tables: deterministic
   counter totals plus the allocation of one run. *)
type work_cell = {
  w_total : int;
  w_minor : float;
  w_major : float;
}

(* One warmup run before measuring: [Value.hash] memoizes on the shared
   catalog rows, so without it the first variant measured would be charged
   all the memo misses and the allocation deltas would depend on variant
   order.  The run starts from an empty minor heap, so what it promotes
   does not depend on what the variant before it left there. *)
let work f =
  ignore (f ());
  Gc.minor ();
  let result, u = Metrics.measure f in
  ( { w_total = List.fold_left (fun acc (_, v) -> acc + v) 0 u.work;
      w_minor = u.minor_words;
      w_major = u.major_words },
    result )

let print_work_table ~id ~title ~variants rows =
  Fmt.pr "@.[%s] %s@." id title;
  Fmt.pr "  %-8s" "n";
  List.iter (fun v -> Fmt.pr " %18s" v) variants;
  Fmt.pr "@.";
  List.iter
    (fun (n, cells) ->
      Fmt.pr "  %-8d" n;
      List.iter (fun c -> Fmt.pr " %18d" c.w_total) cells;
      Fmt.pr "@.")
    rows;
  Fmt.pr "  minor-heap words allocated (one run, after warmup):@.";
  List.iter
    (fun (n, cells) ->
      Fmt.pr "  %-8d" n;
      List.iter (fun c -> Fmt.pr " %18.0f" c.w_minor) cells;
      Fmt.pr "@.")
    rows

(* Variants named "group|mode" (b14's "point|scan" vs "point|idx") must
   return the same result within their group (their counter mixes may
   differ — that is those experiments' point); unpiped variants (every
   other experiment) all share one group.  (The separator is '|' because
   several names contain '/', e.g. b10's "grace(n/4)".) *)
let variant_group name =
  match String.index_opt name '|' with
  | Some i -> String.sub name 0 i
  | None -> ""

(* A work-table experiment: per scale, produce one counter total per
   variant, checking that all variants of a group return the same result.
   Returns the variant names and the (scale, cells) rows for the JSON
   report. *)
let sweep ~id ~title ~make =
  let rows =
    List.map
      (fun n ->
        let fns = make n in
        let outcomes = List.map (fun (name, f) -> (name, work f)) fns in
        let groups = Hashtbl.create 8 in
        List.iter
          (fun (name, (_, v)) ->
            match Hashtbl.find_opt groups (variant_group name) with
            | None -> Hashtbl.add groups (variant_group name) (name, v)
            | Some (name0, v0) ->
              if not (Value.equal v0 v) then
                Fmt.failwith "[%s] %s disagrees with %s at scale %d" id name
                  name0 n)
          outcomes;
        (n, List.map (fun (_, (cell, _)) -> cell) outcomes))
      !scales
  in
  let variants = List.map fst (make !bench_scale) in
  print_work_table ~id ~title ~variants rows;
  (variants, rows)

(* ------------------------------------------------------------------ *)
(* Experiment definitions.  Each returns, per scale, a list of          *)
(* (variant name, unit -> result) thunks over freshly generated data.   *)
(* ------------------------------------------------------------------ *)

let clean n = { (Gen.scaled ~seed:1 n) with Gen.dangling_rate = 0.0 }
let dirty n = { (Gen.scaled ~seed:1 n) with Gen.dangling_rate = 0.05 }

let eval_thunk cat e () = Eval.run cat e
let plan_thunk cat p () = Exec.run cat p

(* B1 — existential nesting: nested loop vs semijoin (Example Query 5). *)
let b1 n =
  let cat = Gen.catalog (dirty n) in
  let adl = Queries.to_adl (Queries.find "EQ5") in
  let rewritten = Strategy.optimize cat adl in
  [ ("nested-loop", eval_thunk cat adl);
    ("semijoin(hash)", plan_thunk cat (Planner.plan rewritten));
    ("semijoin(nl)",
     plan_thunk cat (Planner.plan ~force:Plan.Nested_loop rewritten)) ]

(* B2 — universal / negated nesting: nested loop vs antijoin. *)
let b2 n =
  let cat = Gen.catalog (dirty n) in
  let adl, _ =
    Njq_oosql.Translate.query_string Queries.schema
      {| select s from s in SUPPLIER
         where not exists p in PART : p.oid in s.parts_supplied and p.color = "red" |}
  in
  let rewritten = Strategy.optimize cat adl in
  [ ("nested-loop", eval_thunk cat adl);
    ("antijoin(hash)", plan_thunk cat (Planner.plan rewritten)) ]

(* B3 — attribute unnesting (Example Query 4, referential integrity). *)
let b3 n =
  let cat = Gen.catalog (dirty n) in
  let adl = Queries.to_adl (Queries.find "EQ4") in
  let rewritten = Strategy.optimize cat adl in
  [ ("nested-loop", eval_thunk cat adl);
    ("mu+antijoin(hash)", plan_thunk cat (Planner.plan rewritten)) ]

(* B4 — grouping: nested loop vs nestjoin (hash and nl) (Example Query 6). *)
let b4 n =
  let cat = Gen.catalog (clean n) in
  let adl = Queries.to_adl (Queries.find "EQ6") in
  let rewritten = Strategy.optimize cat adl in
  [ ("nested-loop", eval_thunk cat adl);
    ("nestjoin(hash)", plan_thunk cat (Planner.plan rewritten));
    ("nestjoin(nl)",
     plan_thunk cat (Planner.plan ~force:Plan.Nested_loop rewritten)) ]

(* B4b — nestjoin algorithm ablation on an equi-key nestjoin (the member
   join of EQ6 has no equi keys, so the sort-merge comparison uses the
   Figure 3 shape at scale). *)
let b4b n =
  let cat = Gen.xy_catalog ~seed:9 n in
  let nj =
    nestjoin ~x:"x" ~y:"y" ~attr:"g"
      (eq (var "x" $. "a") (var "y" $. "d"))
      (table "X") (table "Y")
  in
  [ ("nestjoin(nl)",
     plan_thunk cat (Planner.plan ~force:Plan.Nested_loop nj));
    ("nestjoin(hash)", plan_thunk cat (Planner.plan ~force:Plan.Hash nj));
    ("nestjoin(sortmerge)",
     plan_thunk cat (Planner.plan ~force:Plan.Sort_merge nj)) ]

(* B5 — PNHL vs nested loop for materializing set-valued attributes
   (Section 6.2, [DeLa92]), with a partitioned (memory-constrained)
   variant, and the plan njq derives for the query: the rewriter's member
   nestjoin, which probes PART's oid index per element (pointer-based)
   instead of hashing PART. *)
let pnhl_plan ~budget =
  Plan.Pnhl
    { attr = "parts_supplied"; elem_key = var "elem";
      row_key = var "row" $. "oid"; into = "parts_supplied";
      mem_budget = budget; left = Plan.Scan "SUPPLIER"; right = Plan.Scan "PART" }

let b5 n =
  let cat = Gen.catalog { (clean n) with Gen.empty_rate = 0.0 } in
  let nested = Queries.materialize_parts_query in
  [ ("nested-loop", eval_thunk cat nested);
    ("pnhl(1 part.)", plan_thunk cat (pnhl_plan ~budget:max_int));
    ("pnhl(8 part.)", plan_thunk cat (pnhl_plan ~budget:(max 1 (n / 8))));
    ("derived", plan_thunk cat (snd (Planner.derive cat nested))) ]

(* B6 — assembly vs value-based join for a path expression (Section 6.2,
   [ShCa90]/[BlMG93]): project each delivery to its supplier's name. *)
let b6 n =
  let cat = Gen.catalog (clean n) in
  let via_deref =
    map_ "d" (table "DELIVERY")
      (tuple [ ("oid", var "d" $. "oid");
               ("sname", deref "SUPPLIER" (var "d" $. "supplier") $. "sname") ])
  in
  let via_join =
    map_ "z"
      (join ~x:"d" ~y:"s"
         (eq (var "d" $. "supplier") (var "s" $. "soid"))
         (project [ "oid"; "supplier" ] (table "DELIVERY"))
         (map_ "s" (table "SUPPLIER")
            (tuple [ ("soid", var "s" $. "oid"); ("sname", var "s" $. "sname") ])))
      (tuple [ ("oid", var "z" $. "oid"); ("sname", var "z" $. "sname") ])
  in
  [ ("assembly(deref)", plan_thunk cat (Planner.plan via_deref));
    ("value join(hash)", plan_thunk cat (Planner.plan via_join));
    ("value join(nl)",
     plan_thunk cat (Planner.plan ~force:Plan.Nested_loop via_join)) ]

(* B7 — quantifier exchange: an existential over a set-valued attribute
   containing an existential over a base table (Rewriting Example 3's
   essential shape). *)
let b7 n =
  let cat = Gen.xy_catalog ~seed:5 n in
  let q =
    select "x" (table "X")
      (exists "z" (var "x" $. "c")
         (exists "y" (table "Y") (eq (var "z") (var "y" $. "e"))))
  in
  let rewritten = Strategy.optimize cat q in
  [ ("nested-loop", eval_thunk cat q);
    ("exchange+semijoin", plan_thunk cat (Planner.plan rewritten)) ]

(* B8 — grouping alternatives on a subseteq query (Figure 1/2 shape):
   nestjoin vs outer-join repair vs nested loop. *)
let b8 n =
  let cat = Gen.xy_catalog ~seed:5 n in
  let q = Queries.fig2_query in
  let with_mode mode =
    Strategy.optimize
      ~options:{ Strategy.default_options with Strategy.grouping_mode = mode }
      cat q
  in
  let nj = with_mode Strategy.Nestjoin_always in
  let oj = with_mode Strategy.Outerjoin in
  [ ("nested-loop", eval_thunk cat q);
    ("nestjoin(hash)", plan_thunk cat (Planner.plan nj));
    ("outerjoin+nest", plan_thunk cat (Planner.plan oj)) ]

(* B9 — universal quantification: antijoin (Rule 1) vs division ablation
   (Section 5.2.1). *)
let b9 n =
  let cat = Gen.catalog (clean n) in
  let adl, _ =
    Njq_oosql.Translate.query_string Queries.schema
      {| select s.sname from s in SUPPLIER
         where forall p in PART : not (p.color = "red") or p.oid in s.parts_supplied |}
  in
  let anti = Strategy.optimize cat adl in
  let div =
    Strategy.optimize
      ~options:{ Strategy.default_options with Strategy.enable_division = true }
      cat adl
  in
  [ ("nested-loop", eval_thunk cat adl);
    ("antijoin(hash)", plan_thunk cat (Planner.plan anti));
    ("division(hash)", plan_thunk cat (Planner.plan div)) ]

(* B10 — Grace partitioned hash join vs in-memory hash join: the
   memory-budget partitioning cost on a regular equi join. *)
let b10 n =
  let cat = Gen.xy_catalog ~seed:21 n in
  let keys = [ (var "x" $. "a", var "y" $. "d") ] in
  let hash_plan =
    Plan.JoinOp
      { algo = Plan.Hash; kind = Expr.Inner; xvar = "x"; yvar = "y"; keys;
        residual = Expr.true_; left = Plan.Scan "X"; right = Plan.Scan "Y" }
  in
  let grace budget =
    Plan.JoinOp
      { algo = Plan.Partitioned { partitions = 1; mem_budget = budget };
        kind = Expr.Inner; xvar = "x"; yvar = "y"; keys;
        residual = Expr.true_; left = Plan.Scan "X"; right = Plan.Scan "Y" }
  in
  [ ("hash(no budget)", plan_thunk cat hash_plan);
    ("grace(n/4)", plan_thunk cat (grace (max 1 (n / 4))));
    ("grace(n/16)", plan_thunk cat (grace (max 1 (n / 16)))) ]

(* B12 — parallel scaling: the same fixed partitioned plans (a semijoin
   over 8 partitions and a PNHL over 8 spilled segments) run with the
   domain pool sized to 1/2/4/8 domains.  The partition counts live in
   the plan, not the pool, so the work-table totals are identical across
   variants — that is the counter-invariance guarantee of DESIGN.md
   section 7 being measured.
   Wall-clock scaling is bounded by the host's core count: on a single-CPU
   host all four variants time alike (modulo pool overhead). *)
let par_scaling_domains = [ 1; 2; 4; 8 ]

let with_domains k f () =
  let prev = Pool.domains () in
  Pool.set_domains k;
  Fun.protect ~finally:(fun () -> Pool.set_domains prev) f

let b12 n =
  let n = 4 * n in
  let cat = Gen.catalog { (clean n) with Gen.empty_rate = 0.0 } in
  let join_plan =
    Plan.JoinOp
      { algo = Plan.Partitioned { partitions = 8; mem_budget = max_int };
        kind = Expr.Semi; xvar = "s"; yvar = "d";
        keys = [ (var "s" $. "oid", var "d" $. "supplier") ];
        residual = Expr.true_; left = Plan.Scan "SUPPLIER";
        right = Plan.Scan "DELIVERY" }
  in
  let run_both () =
    Value.set
      [ Exec.run cat join_plan;
        Exec.run cat (pnhl_plan ~budget:(max 1 (n / 8))) ]
  in
  List.map
    (fun k -> (Printf.sprintf "domains=%d" k, with_domains k run_both))
    par_scaling_domains

(* B14 — access paths and plan caching.  Three "group|mode" pairs compare
   an index access path against the full-scan plan for the same logical
   work: a hash-index point lookup and a sorted-index range scan (both
   chosen by the planner under the cost model — asserted below) vs
   filter-over-scan (planned with hash forced, which skips access paths),
   and an index-nested-loop join vs building a hash
   table over the whole inner extent.  The '|' separator asks the sweep
   for result equality only: the counter mix differs by design
   (idx_probe/idx_row instead of scan_row/filter_eval/hash_build), and
   json_check --bench requires the index side's total strictly lower at
   every scale.  The fourth pair measures the prepared-query plan cache:
   "cache|cold" clears the cache so every run pays the full
   translate/rewrite/plan derivation, "cache|hit" derives once and then
   serves the compiled plan from the cache (the span summaries must show
   no derivation spans for it). *)
let b14 n =
  let cat = Gen.catalog (clean n) in
  ignore
    (Catalog.create_index cat ~table:"PART" ~kind:Catalog.Hash_index
       ~attrs:[ "color" ] ());
  ignore
    (Catalog.create_index cat ~table:"PART" ~kind:Catalog.Sorted_index
       ~attrs:[ "price" ] ());
  let sup_oid =
    Catalog.create_index cat ~table:"SUPPLIER" ~kind:Catalog.Hash_index
      ~attrs:[ "oid" ] ()
  in
  let point_q =
    select "p" (table "PART") (eq (var "p" $. "color") (str "red"))
  in
  let range_q =
    select "p" (table "PART")
      (gt (var "p" $. "price") (int 10) &&& lt (var "p" $. "price") (int 30))
  in
  let point_full = Planner.plan ~force:Plan.Hash ~cat point_q in
  let point_idx = Planner.plan ~cat point_q in
  let range_full = Planner.plan ~force:Plan.Hash ~cat range_q in
  let range_idx = Planner.plan ~cat range_q in
  (match point_idx with
   | Plan.IndexScan { lookup = Plan.LPoint _; _ } -> ()
   | _ -> failwith "[b14] planner did not pick the point index path");
  (match range_idx with
   | Plan.IndexScan { lookup = Plan.LRange _; _ } -> ()
   | _ -> failwith "[b14] planner did not pick the range index path");
  (* Rename the inner oid so the concatenated rows have no field
     collision, exactly the shape the planner's own rename pass emits. *)
  let jrename = [ ("oid", "soid") ] in
  let join_full =
    Plan.JoinOp
      { algo = Plan.Hash; kind = Expr.Inner; xvar = "d"; yvar = "s";
        keys = [ (var "d" $. "supplier", var "s" $. "soid") ];
        residual = Expr.true_; left = Plan.Scan "DELIVERY";
        right = Plan.RenameOp (jrename, Plan.Scan "SUPPLIER") }
  in
  let join_idx =
    Plan.IndexJoin
      { kind = Expr.Inner; xvar = "d"; yvar = "s"; table = "SUPPLIER";
        index = sup_oid; keys = [ var "d" $. "supplier" ];
        residual = Expr.true_; rename = jrename; left = Plan.Scan "DELIVERY" }
  in
  let text = {| select p.pname from p in PART where p.color = "red" |} in
  let derive text =
    let adl, _ =
      Njq_obs.Span.with_span "translate" (fun () ->
          Njq_oosql.Translate.query_string Queries.schema text)
    in
    let final =
      Njq_obs.Span.with_span "rewrite" (fun () -> Strategy.optimize cat adl)
    in
    Njq_obs.Span.with_span "plan" (fun () -> Planner.plan ~cat final)
  in
  let prepared () =
    fst
      (Njq_engine.Plancache.find_or_derive cat ~options:"b14" text
         ~derive:(fun () -> derive text))
  in
  [ ("point|scan", plan_thunk cat point_full);
    ("point|idx", plan_thunk cat point_idx);
    ("range|scan", plan_thunk cat range_full);
    ("range|idx", plan_thunk cat range_idx);
    ("join|scan", plan_thunk cat join_full);
    ("join|idx", plan_thunk cat join_idx);
    ("cache|cold",
     fun () ->
       Njq_engine.Plancache.clear ();
       Exec.run cat (prepared ()));
    ("cache|hit", fun () -> Exec.run cat (prepared ())) ]

(* B16 — prepared-query serving: K=16 invocations of one prepared
   template executed one-at-a-time ("serve|one": bind constants into the
   template's cached plan, run K times) vs merged into one set-oriented
   batch ("serve|batch": parameter vectors become a parameter table, the
   template body runs once as a join against it — the paper's nested-loop
   → join move applied to the invocation stream).  Both variants combine
   the K per-invocation results into one (cid, rows) set, so the sweep's
   same-group check proves the batch splits back bit-identically; the "|"
   group allows (and json_check --bench requires) a strictly lower work
   total on the batched side: the K scans and hash builds of the shared
   plan body collapse into one. *)
let b16_k = 16
let b16_colors = [| "red"; "green"; "blue"; "yellow"; "black" |]
let b16_template = "select p.pname from p in PART where p.color = ?0"

let b16_translate text =
  fst (Njq_oosql.Translate.query_string Queries.schema text)

(* K invocation results as one (cid, rows) set.  Distinct invocations may
   share a parameter: the cid keeps their result slots distinct, exactly
   as the serving layer's split does. *)
let combine vs =
  Value.set
    (List.mapi
       (fun cid v -> Value.tuple [ ("cid", Value.int cid); ("rows", v) ])
       vs)

let b16 n =
  let cat = Gen.catalog (clean n) in
  Njq_engine.Plancache.clear ();
  let h = Serve.prepare cat ~translate:b16_translate b16_template in
  let vectors =
    List.init b16_k (fun i ->
        [ Value.string b16_colors.(i mod Array.length b16_colors) ])
  in
  [ ("serve|one",
     fun () ->
       combine (List.map (fun ps -> fst (Serve.exec_one h ps)) vectors));
    ("serve|batch", fun () -> combine (Serve.exec_batch h vectors)) ]

(* The concurrent-driver measurement behind the JSON report's "serve"
   section: 4 client domains issue bursts of invocations of the b16
   template against the admission queue at 1/2/4 pool domains, batching
   on vs off; each row records queries/s and queue-wait / service /
   end-to-end latency percentiles computed from the run's replies.
   json_check --bench requires batching to win throughput and p99
   end-to-end latency at 4 domains.

   Each configuration keeps the best of three runs (by queries/s, with
   that run's percentiles): on a machine where client domains, pool
   domains and the scheduler time-slice a few cores, a run can lose a
   scheduling quantum to a neighbour at any point, and that noise is
   one-sided — it only ever makes a run look slower.  The runs are long
   (256 requests per client) so the measured window dwarfs domain
   spawn/join overhead. *)
type serve_row = {
  sv_domains : int;
  sv_mode : string;  (* "batch" | "one" *)
  sv_requests : int;
  sv_batches : int;
  sv_mean_batch : float;
  sv_qps : float;
  sv_queue_p50 : int;
  sv_queue_p99 : int;
  sv_service_p50 : int;
  sv_service_p99 : int;
  sv_lat_p50 : int;
  sv_lat_p99 : int;
}

let serve_driver_stats () =
  let cat = Gen.catalog (clean !bench_scale) in
  Njq_engine.Plancache.clear ();
  let h = Serve.prepare cat ~translate:b16_translate b16_template in
  let params ~client ~seq =
    (h, [ Value.string b16_colors.((client + seq) mod Array.length b16_colors) ])
  in
  let clients = 4 and requests = 256 and burst = 4 in
  let attempts = 3 in
  let prev_domains = Pool.domains () in
  let measure domains batching =
    (* Warm both plan-cache entries so the measured run serves hits
       only — the steady state of a serving process. *)
    ignore (Serve.exec_one h [ Value.string "red" ]);
    ignore
      (Serve.exec_batch h [ [ Value.string "red" ]; [ Value.string "blue" ] ]);
    let t0 = Njq_obs.Clock.now_ns () in
    let replies =
      Serve.run ~batching ~window:b16_k ~burst ~clients ~requests ~params ()
    in
    let wall_ns = Njq_obs.Clock.elapsed_ns t0 in
    let module H = Njq_obs.Histogram in
    let queue = H.create () in
    let service = H.create () in
    let latency = H.create () in
    let inv_batch = ref 0.0 in
    List.iter
      (fun (r : Serve.reply) ->
        H.record queue r.queue_ns;
        H.record service r.service_ns;
        H.record latency (r.queue_ns + r.service_ns);
        inv_batch := !inv_batch +. (1.0 /. float_of_int r.batch))
      replies;
    let n = List.length replies in
    let batches = int_of_float (Float.round !inv_batch) in
    { sv_domains = domains;
      sv_mode = (if batching then "batch" else "one");
      sv_requests = n;
      sv_batches = batches;
      sv_mean_batch =
        (if batches = 0 then 0.0 else float_of_int n /. float_of_int batches);
      sv_qps = float_of_int n /. (float_of_int wall_ns /. 1e9);
      sv_queue_p50 = H.p50 queue;
      sv_queue_p99 = H.p99 queue;
      sv_service_p50 = H.p50 service;
      sv_service_p99 = H.p99 service;
      sv_lat_p50 = H.p50 latency;
      sv_lat_p99 = H.p99 latency }
  in
  let rows =
    List.concat_map
      (fun domains ->
        Pool.set_domains domains;
        List.map
          (fun batching ->
            let runs = List.init attempts (fun _ -> measure domains batching) in
            List.fold_left
              (fun best r -> if r.sv_qps > best.sv_qps then r else best)
              (List.hd runs) (List.tl runs))
          [ true; false ])
      [ 1; 2; 4 ]
  in
  Pool.set_domains prev_domains;
  rows

(* The measurement behind the JSON report's "spill" section (b18): one
   counted run per variant at bench_scale — the work-table totals cannot
   gate spill behaviour because the budgeted variants legitimately do
   MORE total work (partitioning passes, spill encode/decode), so the
   gate needs the per-counter breakdown: the core operator work must be
   budget-invariant while the spill counters go from zero (resident) to
   nonzero (1% budget).  Plus a catalog cold-start contrast: the same
   catalog saved in the textual ADL format and the NJQC binary format,
   each loaded back best-of-3 — the binary load must win. *)
type spill_cell = {
  sp_variant : string;
  sp_rows : int;  (* result cardinality *)
  sp_work : (string * int) list;  (* fixed counter subset, 0 when unticked *)
}

type coldstart = {
  cs_rows : int;  (* total catalog rows *)
  cs_text_bytes : int;
  cs_njqc_bytes : int;
  cs_text_ns : int;
  cs_njqc_ns : int;
}

let spill_counter_keys =
  [ "scan_row"; "hash_build"; "hash_probe"; "pnhl_build"; "sm_cmp";
    "spill_part"; "spill_row"; "spill_bytes" ]

let coldstart_stats () =
  let cat = Gen.catalog (clean (4 * !bench_scale)) in
  let cs_rows =
    List.fold_left
      (fun acc t -> acc + Catalog.cardinality cat t)
      0 (Catalog.table_names cat)
  in
  let text_path = Filename.temp_file "njq-bench-cat" ".adl" in
  let njqc_path = Filename.temp_file "njq-bench-cat" ".njqc" in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> try Sys.remove p with Sys_error _ -> ())
        [ text_path; njqc_path ])
  @@ fun () ->
  Serialize.save_catalog_file cat text_path;
  Njq_engine.Rowcodec.save_catalog cat njqc_path;
  let size p =
    In_channel.with_open_bin p (fun ic -> Int64.to_int (In_channel.length ic))
  in
  (* Best of 3: cold-start parse work is deterministic, so the minimum
     sheds scheduler noise (same rationale as [work]'s allocation probes). *)
  let best_of load =
    let best = ref max_int in
    for _ = 1 to 3 do
      let t0 = Njq_obs.Clock.now_ns () in
      ignore (load ());
      let dt = Njq_obs.Clock.elapsed_ns t0 in
      if dt < !best then best := dt
    done;
    !best
  in
  let cs_text_ns = best_of (fun () -> Serialize.load_catalog_file text_path) in
  let cs_njqc_ns = best_of (fun () -> Njq_engine.Rowcodec.load_catalog njqc_path) in
  { cs_rows;
    cs_text_bytes = size text_path;
    cs_njqc_bytes = size njqc_path;
    cs_text_ns;
    cs_njqc_ns }

(* b17: cost-based join-order enumeration vs the rewriter's written
   order.  Synthetic chain and star schemas, all attribute names
   distinct, with a selective filter on the LAST-written relation:
   planned in the written order every join processes full-size
   intermediates before the filter bites, while the enumerator joins the
   filtered relation first so every later build and probe shrinks.  The
   "group|rw" / "group|enum" twins must agree on results (the sweep's
   group check is the bench-level differential); json_check --bench
   additionally requires the enumerated side to do no more counter work
   anywhere and strictly less on the deep chain (chain6). *)
let b17_chain k n =
  let cat = Catalog.create () in
  let attr p i = Printf.sprintf "%s%d" p i in
  for i = 0 to k - 1 do
    let a = attr "a" i and f = attr "f" i and v = attr "v" i in
    Catalog.add_table cat
      ~name:(Printf.sprintf "C%d" i)
      ~row_type:
        (Vtype.TTuple [ (a, Vtype.TInt); (f, Vtype.TInt); (v, Vtype.TInt) ])
      (List.init n (fun j ->
           Value.tuple
             [ (a, Value.int j); (f, Value.int j); (v, Value.int j) ]))
  done;
  let leaf i =
    if i = k - 1 then
      select "s"
        (table (Printf.sprintf "C%d" i))
        (lt (var "s" $. attr "v" i) (int (max 1 (n / 8))))
    else table (Printf.sprintf "C%d" i)
  in
  let q = ref (leaf 0) in
  for i = 1 to k - 1 do
    q :=
      join ~x:"x" ~y:"y"
        (eq (var "x" $. attr "a" (i - 1)) (var "y" $. attr "f" i))
        !q (leaf i)
  done;
  (cat, !q)

let b17_star k n =
  let cat = Catalog.create () in
  let dims = k - 1 in
  let dn = max 1 (n / 2) in
  let fks = List.init dims (fun i -> Printf.sprintf "fk%d" i) in
  Catalog.add_table cat ~name:"F"
    ~row_type:
      (Vtype.TTuple
         (("fa", Vtype.TInt) :: List.map (fun a -> (a, Vtype.TInt)) fks))
    (List.init n (fun j ->
         Value.tuple
           (("fa", Value.int j)
           :: List.map (fun a -> (a, Value.int (j mod dn))) fks)));
  for i = 0 to dims - 1 do
    let a = Printf.sprintf "da%d" i and v = Printf.sprintf "dv%d" i in
    Catalog.add_table cat
      ~name:(Printf.sprintf "D%d" i)
      ~row_type:(Vtype.TTuple [ (a, Vtype.TInt); (v, Vtype.TInt) ])
      (List.init dn (fun j ->
           Value.tuple [ (a, Value.int j); (v, Value.int j) ]))
  done;
  let leaf i =
    if i = dims - 1 then
      select "s"
        (table (Printf.sprintf "D%d" i))
        (lt (var "s" $. Printf.sprintf "dv%d" i) (int (max 1 (dn / 8))))
    else table (Printf.sprintf "D%d" i)
  in
  let q = ref (table "F") in
  for i = 0 to dims - 1 do
    q :=
      join ~x:"x" ~y:"y"
        (eq (var "x" $. Printf.sprintf "fk%d" i)
           (var "y" $. Printf.sprintf "da%d" i))
        !q (leaf i)
  done;
  (cat, !q)

(* Both plans are fixed at experiment-build time (outside the measured
   thunks): the contrast is between plans, not planning.  Forcing hash
   skips enumeration, so the rw twin is the written order. *)
let b17 n =
  List.concat_map
    (fun (name, (cat, q)) ->
      let rw = Planner.plan ~force:Plan.Hash ~cat q and en = Planner.plan ~cat q in
      [ (name ^ "|rw", plan_thunk cat rw);
        (name ^ "|enum", plan_thunk cat en) ])
    [ ("chain3", b17_chain 3 n);
      ("chain4", b17_chain 4 n);
      ("chain6", b17_chain 6 n);
      ("star3", b17_star 3 n);
      ("star4", b17_star 4 n);
      ("star6", b17_star 6 n) ]

(* B18 — larger-than-memory execution: the two spill-capable operators
   (Grace join, PNHL) run fully resident ("family|inf") and at 10% / 1%
   memory budgets ("family|10pct", "family|1pct").  The '|' groups ask
   the sweep for result equality only: the budgeted runs pay extra
   partitioning and spill-file work by design, but the rows that come out
   must be bit-identical — the larger-than-memory differential at bench
   level.  The JSON report adds a "spill" section (computed once at
   bench_scale, like b16's "serve"): per-variant counter snapshots —
   json_check --bench requires the core work (scan_row,
   hash_build/hash_probe, pnhl_build) invariant across budgets, zero
   spill counters at |inf and nonzero spill counters at |1pct — plus a
   catalog cold-start contrast timing the textual parse against the NJQC
   binary load of the same catalog, where the binary load must be
   strictly faster. *)
let b18_grace budget =
  Plan.JoinOp
    { algo = Plan.Partitioned { partitions = 1; mem_budget = budget };
      kind = Expr.Inner; xvar = "x"; yvar = "y";
      keys = [ (var "x" $. "a", var "y" $. "d") ]; residual = Expr.true_;
      left = Plan.Scan "X"; right = Plan.Scan "Y" }

let b18 n =
  let catxy = Gen.xy_catalog ~seed:33 n in
  let scat = Gen.catalog { (clean n) with Gen.empty_rate = 0.0 } in
  let budgets =
    [ ("inf", max_int); ("10pct", max 1 (n / 10)); ("1pct", max 1 (n / 100)) ]
  in
  List.concat_map
    (fun (tag, budget) ->
      [ ("grace|" ^ tag, plan_thunk catxy (b18_grace budget));
        ("pnhl|" ^ tag, plan_thunk scat (pnhl_plan ~budget)) ])
    budgets

(* B19 — the serve plans of the repo benchmark (perfbench's serve
   workload): its nestjoin, point and semijoin templates over hash indexes
   on PART.price and SUPPLIER.sname, K=16 invocations each through
   Serve.exec_batch ("t|batch"), against the same invocations one at a
   time ("t|one"; the '|' group checks the results agree).  The batch
   picks per-invocation execution when the cost model prices it lower,
   so the nestjoin and point batches run index point lookups and
   pointer-based member joins: a plan that fell back to full scans would
   add at least n to a total per invocation, which the work gate pins. *)
let b19_templates =
  [ ( "nestjoin",
      {|select (sname = s.sname,
         pnames = select p.pname from p in PART where p.oid in s.parts_supplied)
  from s in SUPPLIER where s.sname = ?0|},
      fun n i -> Value.string (Printf.sprintf "s%d" (i * 7 mod n)) );
    ( "point",
      {|select p.pname from p in PART where p.price = ?0|},
      fun _ i -> Value.int (1 + (i * 37 mod 500)) );
    ( "semijoin",
      {|select s.sname from s in SUPPLIER
  where s.sname = ?0 and
        exists z in s.parts_supplied : exists p in PART : z = p.oid and p.color = "red"|},
      fun n i -> Value.string (Printf.sprintf "s%d" (i * 5 mod n)) ) ]

let b19 n =
  let cat = Gen.catalog (clean n) in
  List.iter
    (fun (table, attr) ->
      ignore
        (Catalog.create_index cat ~table ~kind:Catalog.Hash_index
           ~attrs:[ attr ] ()))
    [ ("PART", "price"); ("SUPPLIER", "sname") ];
  Njq_engine.Plancache.clear ();
  (* Templates are rewritten once before batching, as perfbench does. *)
  let translate text = Strategy.optimize cat (b16_translate text) in
  List.concat_map
    (fun (name, text, param) ->
      let h = Serve.prepare cat ~translate text in
      let vectors = List.init b16_k (fun i -> [ param n i ]) in
      [ ( name ^ "|one",
          fun () ->
            combine (List.map (fun ps -> fst (Serve.exec_one h ps)) vectors) );
        (name ^ "|batch", fun () -> combine (Serve.exec_batch h vectors)) ])
    b19_templates

let spill_stats () =
  let cells =
    List.map
      (fun (name, f) ->
        (* One warmup run (Value.hash memos), then one counted run. *)
        ignore (f ());
        let v, u = Metrics.measure f in
        { sp_variant = name;
          sp_rows = Value.set_size v;
          sp_work =
            List.map
              (fun k -> (k, Option.value ~default:0 (List.assoc_opt k u.work)))
              spill_counter_keys })
      (b18 !bench_scale)
  in
  (cells, coldstart_stats ())

let experiments =
  [ ("b1", "exists-nesting -> semijoin (EQ5)", b1);
    ("b2", "not-exists-nesting -> antijoin", b2);
    ("b3", "attribute unnest -> mu+antijoin (EQ4)", b3);
    ("b4", "grouping -> nestjoin (EQ6)", b4);
    ("b4b", "nestjoin algorithms: nl vs hash vs sort-merge", b4b);
    ("b5", "set-valued attribute materialization: PNHL (sec 6.2)", b5);
    ("b6", "path expression: assembly vs value join (sec 6.2)", b6);
    ("b7", "quantifier exchange (RE3)", b7);
    ("b8", "grouping alternatives: nestjoin vs outerjoin (fig 2)", b8);
    ("b9", "universal quantification: antijoin vs division (sec 5.2.1)", b9);
    ("b10", "grace partitioned hash join vs in-memory hash", b10);
    ("b12", "parallel scaling: fixed partitioned plans, 1/2/4/8 domains", b12);
    ("b14", "access paths: index scans, index join, plan cache", b14);
    ("b16", "prepared-query serving: one-at-a-time vs parameter batch", b16);
    ("b17", "join-order enumeration vs rewriter order (chain/star)", b17);
    ("b18", "larger-than-memory: spilling operators + binary catalog", b18);
    ("b19", "serve plans: perfbench templates through their indexes", b19) ]

(* ------------------------------------------------------------------ *)
(* Bechamel wall-clock runs                                            *)
(* ------------------------------------------------------------------ *)

let bechamel_tests selected =
  let groups =
    List.map
      (fun (id, _, make) ->
        let variants = make !bench_scale in
        Test.make_grouped ~name:id
          (List.map
             (fun (vname, f) ->
               Test.make ~name:vname (Staged.stage (fun () -> ignore (f ()))))
             variants))
      selected
  in
  Test.make_grouped ~name:"njq" groups

(* Returns (bechamel name, ns/run) rows, e.g. ("njq/b1/nested-loop", 874.0). *)
let run_bechamel selected =
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~stabilize:false ()
  in
  let raw =
    Benchmark.all cfg Instance.[ monotonic_clock ] (bechamel_tests selected)
  in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name ols acc ->
        let ns =
          match Analyze.OLS.estimates ols with
          | Some (t :: _) -> t
          | _ -> Float.nan
        in
        (name, ns) :: acc)
      results []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  Fmt.pr "@.Wall-clock estimates (ns/run, OLS on the monotonic clock, n = %d):@."
    !bench_scale;
  List.iter (fun (name, ns) -> Fmt.pr "  %-48s %12.0f ns@." name ns) rows;
  rows

(* ------------------------------------------------------------------ *)
(* Span summaries                                                      *)
(* ------------------------------------------------------------------ *)

(* One traced run of every variant at bench_scale, with the execution
   collector installed so per-operator spans are emitted; spans aggregate
   by name into (name, count, total_ns) rows per variant.  Only computed
   for the JSON report — the default runs stay untraced. *)
let span_summaries selected =
  List.map
    (fun (id, _, make) ->
      let variants = make !bench_scale in
      let variant_summary (vname, f) =
        (* One warmup run before the traced run: a cold run is charged
           one-time costs the wall-clock estimates never see (Value.hash
           memos, lazy index builds, a compulsory plan-cache miss), which
           inflated per-op span totals by an order of magnitude relative
           to ns_per_run — b6's assembly(deref) op:map span used to read
           14x its bechamel estimate. *)
        ignore (f ());
        let _, spans =
          Njq_obs.Span.trace (fun () ->
              fst (Njq_engine.Exec.collect (fun () -> ignore (f ()))))
        in
        let tbl = Hashtbl.create 16 in
        List.iter
          (fun (s : Njq_obs.Span.span) ->
            let count, total =
              Option.value ~default:(0, 0) (Hashtbl.find_opt tbl s.name)
            in
            Hashtbl.replace tbl s.name
              (count + 1, total + Njq_obs.Span.duration_ns s))
          spans;
        let rows =
          Hashtbl.fold (fun name (c, t) acc -> (name, c, t) :: acc) tbl []
          |> List.sort (fun (a, _, _) (b, _, _) -> String.compare a b)
        in
        (vname, rows)
      in
      (id, List.map variant_summary variants))
    selected

(* ------------------------------------------------------------------ *)
(* Latency histograms                                                  *)
(* ------------------------------------------------------------------ *)

(* Per-iteration wall-clock samples at bench_scale: one warmup run per
   variant (same rationale as [work]), then [latency_iters] timed runs
   recorded into an HDR histogram — the p50/p90/p99/max columns of the
   JSON report.  The exact work totals gate deterministic regressions;
   these percentiles catch wall-clock ones (within a noise band — see
   json_check --baseline).  The count matters for the gate: with fewer
   than 100 samples the p99 rank IS the max, so one descheduled
   iteration (runtest runs this smoke concurrently with the whole test
   suite on whatever CPU it gets) would poison the percentile; at 120
   the p99 sheds the single worst sample. *)
let latency_iters = 120

let latency_summaries selected =
  List.map
    (fun (id, _, make) ->
      let variants = make !bench_scale in
      ( id,
        List.map
          (fun (vname, f) ->
            ignore (f ());
            let h = Njq_obs.Histogram.create () in
            for _ = 1 to latency_iters do
              let t0 = Njq_obs.Clock.now_ns () in
              ignore (f ());
              Njq_obs.Histogram.record h (Njq_obs.Clock.elapsed_ns t0)
            done;
            (vname, h))
          variants ))
    selected

(* name is "njq/<id>/<variant>" — keep the variant rows of experiment [id]. *)
let time_rows_of ~id time_rows =
  let prefix = "njq/" ^ id ^ "/" in
  List.filter_map
    (fun (name, ns) ->
      let lp = String.length prefix in
      if String.length name > lp && String.sub name 0 lp = prefix then
        Some (String.sub name lp (String.length name - lp), ns)
      else None)
    time_rows

(* Parallel-scaling variants are named "domains=K"; surface K as a field so
   the report carries the pool size alongside each estimate. *)
let domains_of_variant v =
  let prefix = "domains=" in
  let lp = String.length prefix in
  if String.length v > lp && String.sub v 0 lp = prefix then
    int_of_string_opt (String.sub v lp (String.length v - lp))
  else None

(* ------------------------------------------------------------------ *)
(* JSON report                                                         *)
(* ------------------------------------------------------------------ *)

let write_json ~path ~work_results ~time_rows ~span_rows ~latency_rows
    ~serve_rows ~spill_rows =
  let experiment (id, title, variants, rows) =
    let spans =
      match List.assoc_opt id span_rows with
      | None -> Json.List []
      | Some vs ->
        Json.List
          (List.map
             (fun (vname, entries) ->
               Json.Obj
                 [ ("variant", Json.Str vname);
                   ("spans",
                    Json.List
                      (List.map
                         (fun (name, count, total_ns) ->
                           Json.Obj
                             [ ("name", Json.Str name);
                               ("count", Json.Int count);
                               ("total_ns", Json.Int total_ns) ])
                         entries)) ])
             vs)
    in
    let work =
      Json.List
        (List.map
           (fun (n, cells) ->
             Json.Obj
               [ ("n", Json.Int n);
                 ("totals",
                  Json.List (List.map (fun c -> Json.Int c.w_total) cells));
                 ("minor_words",
                  Json.List (List.map (fun c -> Json.Float c.w_minor) cells));
                 ("major_words",
                  Json.List (List.map (fun c -> Json.Float c.w_major) cells)) ])
           rows)
    in
    (* A "time" key with an empty array reads as data that silently went
       missing (and json_check now rejects it); omit the key when no
       bechamel rows were collected for this experiment. *)
    let time =
      match time_rows_of ~id time_rows with
      | [] -> []
      | rows ->
        [ ("time",
           Json.List
             (List.map
                (fun (variant, ns) ->
                  let base =
                    [ ("variant", Json.Str variant);
                      ("ns_per_run", Json.Float ns) ]
                  in
                  let fields =
                    match domains_of_variant variant with
                    | Some k -> base @ [ ("domains", Json.Int k) ]
                    | None -> base
                  in
                  Json.Obj fields)
                rows)) ]
    in
    let latency =
      match List.assoc_opt id latency_rows with
      | None | Some [] -> []
      | Some vs ->
        [ ("latency",
           Json.List
             (List.map
                (fun (vname, h) ->
                  let module H = Njq_obs.Histogram in
                  Json.Obj
                    [ ("variant", Json.Str vname);
                      ("samples", Json.Int (H.count h));
                      ("p50_ns", Json.Int (H.p50 h));
                      ("p90_ns", Json.Int (H.p90 h));
                      ("p99_ns", Json.Int (H.p99 h));
                      ("max_ns", Json.Int (H.max_value h)) ])
                vs)) ]
    in
    let serve =
      match List.assoc_opt id serve_rows with
      | None | Some [] -> []
      | Some rows ->
        [ ("serve",
           Json.List
             (List.map
                (fun r ->
                  Json.Obj
                    [ ("domains", Json.Int r.sv_domains);
                      ("mode", Json.Str r.sv_mode);
                      ("requests", Json.Int r.sv_requests);
                      ("batches", Json.Int r.sv_batches);
                      ("mean_batch", Json.Float r.sv_mean_batch);
                      ("queries_per_s", Json.Float r.sv_qps);
                      ("queue_p50_ns", Json.Int r.sv_queue_p50);
                      ("queue_p99_ns", Json.Int r.sv_queue_p99);
                      ("service_p50_ns", Json.Int r.sv_service_p50);
                      ("service_p99_ns", Json.Int r.sv_service_p99);
                      ("latency_p50_ns", Json.Int r.sv_lat_p50);
                      ("latency_p99_ns", Json.Int r.sv_lat_p99) ])
                rows)) ]
    in
    let spill =
      match List.assoc_opt id spill_rows with
      | None -> []
      | Some (cells, cs) ->
        [ ("spill",
           Json.Obj
             [ ("cells",
                Json.List
                  (List.map
                     (fun c ->
                       Json.Obj
                         (("variant", Json.Str c.sp_variant)
                          :: ("rows", Json.Int c.sp_rows)
                          :: List.map
                               (fun (k, v) -> (k, Json.Int v))
                               c.sp_work))
                     cells));
               ("coldstart",
                Json.Obj
                  [ ("rows", Json.Int cs.cs_rows);
                    ("text_bytes", Json.Int cs.cs_text_bytes);
                    ("njqc_bytes", Json.Int cs.cs_njqc_bytes);
                    ("text_ns", Json.Int cs.cs_text_ns);
                    ("njqc_ns", Json.Int cs.cs_njqc_ns) ]) ]) ]
    in
    Json.Obj
      ([ ("id", Json.Str id);
         ("title", Json.Str title);
         ("variants", Json.List (List.map (fun v -> Json.Str v) variants));
         ("work", work) ]
      @ time @ latency @ serve @ spill
      @ [ ("spans", spans) ])
  in
  let doc =
    Json.Obj
      [ ("bench_scale", Json.Int !bench_scale);
        ("scales", Json.List (List.map (fun n -> Json.Int n) !scales));
        ("experiments", Json.List (List.map experiment work_results)) ]
  in
  let oc = open_out path in
  output_string oc (Json.to_string doc);
  output_char oc '\n';
  close_out oc;
  Fmt.pr "@.wrote %s@." path

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)
(* ------------------------------------------------------------------ *)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec parse picked = function
    | [] -> List.rev picked
    | "--scale" :: n :: rest ->
      (match int_of_string_opt n with
       | Some n when n > 0 ->
         bench_scale := n;
         scales := [ n ]
       | _ -> Fmt.epr "--scale expects a positive integer@."; exit 1);
      parse picked rest
    | "--out" :: path :: rest ->
      json_out := path;
      parse picked rest
    | a :: rest -> parse (a :: picked) rest
  in
  let args = parse [] args in
  let work_only = List.mem "--work-only" args in
  let time_only = List.mem "--time-only" args in
  let json = List.mem "--json" args in
  let picked =
    List.filter (fun a -> not (String.length a > 1 && a.[0] = '-')) args
  in
  let selected =
    match picked with
    | [] -> experiments
    | ids ->
      List.map
        (fun id ->
          match List.find_opt (fun (i, _, _) -> String.equal i id) experiments with
          | Some e -> e
          | None ->
            Fmt.epr "unknown experiment %s (available: %s)@." id
              (String.concat ", " (List.map (fun (i, _, _) -> i) experiments));
            exit 1)
        ids
  in
  (* Enumerate "id variant" lines and exit — the identity the baseline
     regression gate is keyed on (tools/baseline_check compares this
     against BENCH_baseline.json). *)
  if List.mem "--list" args then begin
    List.iter
      (fun (id, _, make) ->
        List.iter (fun (v, _) -> Fmt.pr "%s %s@." id v) (make !bench_scale))
      selected;
    exit 0
  end;
  let work_results =
    if time_only then
      (* no sweep, but keep one entry per experiment so the JSON report
         still carries the wall-clock estimates *)
      List.map
        (fun (id, title, make) ->
          (id, title, List.map fst (make !bench_scale), []))
        selected
    else begin
      Fmt.pr "Work tables (deterministic operation counts; lower is better):@.";
      List.map
        (fun (id, title, make) ->
          let variants, rows = sweep ~id ~title ~make in
          (id, title, variants, rows))
        selected
    end
  in
  let time_rows = if work_only then [] else run_bechamel selected in
  if json then begin
    let span_rows = span_summaries selected in
    let latency_rows = latency_summaries selected in
    let serve_rows =
      if List.exists (fun (id, _, _) -> String.equal id "b16") selected then
        [ ("b16", serve_driver_stats ()) ]
      else []
    in
    let spill_rows =
      if List.exists (fun (id, _, _) -> String.equal id "b18") selected then
        [ ("b18", spill_stats ()) ]
      else []
    in
    write_json ~path:!json_out ~work_results ~time_rows ~span_rows
      ~latency_rows ~serve_rows ~spill_rows
  end
