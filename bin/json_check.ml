(* CI smoke validator: parse a JSON file with the observability reader and
   assert the presence of required top-level keys.  Exits non-zero with a
   message on malformed JSON or a missing key.

   With --bench, the file is a BENCH_engine.json document instead: every
   experiment's work rows must carry per-variant "totals", "minor_words"
   and "major_words" arrays; a "time" key, when present, must be non-empty
   (an empty array is data that silently went missing — the harness omits
   the key instead); every experiment must carry a non-empty "latency"
   section whose variants match the experiment's and whose percentiles are
   ordered (p50 <= p90 <= p99 <= max); the b14 access-path experiment
   must show, for every "group|scan"/"group|idx" variant pair at every
   scale, a strictly lower work total on the index side, its "cache|hit"
   span summary must carry none of the derivation spans
   (translate/rewrite/plan) that
   "cache|cold" pays, and the cache hit must be faster than the cold
   derivation — on bechamel wall-clock rows when "time" is present, on
   latency p50 otherwise.  The b16 serving experiment must show the
   batched execution of the K merged invocations doing strictly less
   counter work than the K one-at-a-time runs, and its concurrent-driver
   "serve" section must carry both modes at 1/2/4 pool domains with
   batching winning queries/s and p99 queue wait at 4 domains.  The b17
   join-order experiment must show, for every "group|rw"/"group|enum"
   variant pair, the enumerated order doing no more counter work than
   the rewriter order, strictly less on the chain6 groups.  The b18
   larger-than-memory experiment must carry a "spill" section whose
   per-variant counter snapshots show, for each operator family
   (grace/pnhl) across the inf/10pct/1pct budget variants,
   budget-invariant core work (scan_row, hash_build/hash_probe,
   pnhl_build), zero spill counters on the resident |inf run, and
   nonzero spill counters at the 1% budget; its "coldstart" record must
   show the NJQC binary catalog load strictly faster than the textual
   parse of the same catalog.

   With --baseline BASE, the perf-regression gate: BASE and FILE are two
   BENCH_engine.json documents; they must agree on experiment ids and
   variant lists, every (experiment, scale, variant) work total in FILE
   must not exceed BASE's (work counters are deterministic — any increase
   is a real regression), and every latency p99 must stay within
   max(BASE * (1 + band), BASE + 5ms) where band defaults to 3.0 (wall
   clock is noisy; only order-of-magnitude blowups on meaningfully long
   runs should fail CI).  [--work WORKFILE] adds a second report whose
   experiments are held to their work totals only: together the two
   reports must carry exactly BASE's experiments. *)

module Json = Njq_obs.Json

let fail fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("json_check: " ^ s);
      exit 1)
    fmt

let parse file =
  let src = In_channel.with_open_text file In_channel.input_all in
  match Json.of_string src with
  | exception Json.Parse_error msg -> fail "%s: invalid JSON: %s" file msg
  | doc -> doc

(* The "enumeration" key of njq explain --json is structured: one object
   per join region with the enumerator's counters, costs and the chosen
   vs rewriter plan fingerprints.  Validate the shape, not just the
   presence, so a field rename can't silently break dashboards. *)
let check_enumeration file v =
  let regions =
    match v with
    | Json.List l -> l
    | _ -> fail "%s: \"enumeration\" is not an array" file
  in
  List.iteri
    (fun idx r ->
      let ctx = Printf.sprintf "enumeration[%d]" idx in
      let get k =
        match Json.member k r with
        | Some v -> v
        | None -> fail "%s: %s: missing key %S" file ctx k
      in
      (match get "relations" with
       | Json.List (_ :: _ as rels) ->
         List.iter
           (function
             | Json.Str _ -> ()
             | _ -> fail "%s: %s: non-string relation" file ctx)
           rels
       | _ -> fail "%s: %s: \"relations\" not a non-empty array" file ctx);
      List.iter
        (fun k ->
          match get k with
          | Json.Int n when n >= 0 -> ()
          | _ -> fail "%s: %s: %S not a non-negative integer" file ctx k)
        [ "considered"; "pruned" ];
      List.iter
        (fun k ->
          match get k with
          | Json.Int _ | Json.Float _ -> ()
          | _ -> fail "%s: %s: %S not a number" file ctx k)
        [ "chosen_cost"; "rewriter_cost" ];
      let reordered =
        match get "reordered" with
        | Json.Bool b -> b
        | _ -> fail "%s: %s: \"reordered\" not a bool" file ctx
      in
      let fp k =
        match get k with
        | Json.Str s when String.length s > 0 -> s
        | _ -> fail "%s: %s: %S not a non-empty string" file ctx k
      in
      let chosen = fp "chosen_fingerprint" in
      let rewriter = fp "rewriter_fingerprint" in
      (* the flag and the fingerprints must tell the same story *)
      if reordered && String.equal chosen rewriter then
        fail "%s: %s: reordered but fingerprints identical" file ctx)
    regions

let check_keys file keys =
  let doc = parse file in
  List.iter
    (fun k ->
      match Json.member k doc with
      | None -> fail "%s: missing top-level key %S" file k
      | Some v -> if String.equal k "enumeration" then check_enumeration file v)
    keys

(* ------------------------------------------------------------------ *)
(* Shared accessors (fail with file context)                           *)
(* ------------------------------------------------------------------ *)

let get file what k o =
  match Json.member k o with
  | Some v -> v
  | None -> fail "%s: %s: missing key %S" file what k

let as_list file what = function
  | Json.List l -> l
  | _ -> fail "%s: %s is not an array" file what

let as_str file what = function
  | Json.Str s -> s
  | _ -> fail "%s: %s is not a string" file what

let as_num file what = function
  | Json.Int n -> float_of_int n
  | Json.Float f -> f
  | _ -> fail "%s: %s is not a number" file what

(* "latency" rows of one experiment, as (variant, p50, p99) keyed triples;
   validates shape and percentile ordering on the way. *)
let latency_rows file ctx exp =
  match Json.member "latency" exp with
  | None -> fail "%s: %s: missing \"latency\" section" file ctx
  | Some (Json.List []) -> fail "%s: %s: empty \"latency\" section" file ctx
  | Some l ->
    List.map
      (fun row ->
        let v = as_str file (ctx ^ " latency variant") (get file ctx "variant" row) in
        let num k = as_num file (ctx ^ " latency " ^ k) (get file ctx k row) in
        let samples = num "samples" in
        let p50 = num "p50_ns" and p90 = num "p90_ns" in
        let p99 = num "p99_ns" and mx = num "max_ns" in
        if samples <= 0.0 then
          fail "%s: %s: latency %s has no samples" file ctx v;
        if not (p50 <= p90 && p90 <= p99 && p99 <= mx) then
          fail
            "%s: %s: latency %s percentiles out of order \
             (p50=%.0f p90=%.0f p99=%.0f max=%.0f)"
            file ctx v p50 p90 p99 mx;
        (v, p50, p99))
      (as_list file (ctx ^ " latency") l)

(* ------------------------------------------------------------------ *)
(* --bench                                                             *)
(* ------------------------------------------------------------------ *)

let check_bench file =
  let doc = parse file in
  let get what k o = get file what k o in
  let as_list what l = as_list file what l in
  let as_str what s = as_str file what s in
  let as_num what n = as_num file what n in
  List.iter
    (fun k -> if Json.member k doc = None then fail "%s: missing top-level key %S" file k)
    [ "bench_scale"; "scales"; "experiments" ];
  let experiments = as_list "experiments" (get "document" "experiments" doc) in
  let b14_rows = ref 0 in
  let b16_rows = ref 0 in
  let b17_rows = ref 0 in
  let b18_rows = ref 0 in
  List.iter
    (fun exp ->
      let id = as_str "id" (get "experiment" "id" exp) in
      let ctx = Printf.sprintf "experiment %s" id in
      let variants =
        List.map (as_str (ctx ^ " variant")) (as_list (ctx ^ " variants") (get ctx "variants" exp))
      in
      let nv = List.length variants in
      let index_of name =
        let rec go i = function
          | [] -> None
          | v :: _ when String.equal v name -> Some i
          | _ :: rest -> go (i + 1) rest
        in
        go 0 variants
      in
      (* An empty timing section is indistinguishable from lost data; the
         harness omits the key when it has no rows, so empty = bug. *)
      (match Json.member "time" exp with
       | Some (Json.List []) ->
         fail "%s: %s: \"time\" present but empty (omit the key instead)" file
           ctx
       | _ -> ());
      let lat = latency_rows file ctx exp in
      List.iter
        (fun (v, _, _) ->
          if not (List.mem v variants) then
            fail "%s: %s: latency row for unknown variant %S" file ctx v)
        lat;
      List.iter
        (fun v ->
          if not (List.exists (fun (lv, _, _) -> String.equal lv v) lat) then
            fail "%s: %s: variant %S has no latency row" file ctx v)
        variants;
      List.iter
        (fun row ->
          let cells what =
            let xs = List.map (as_num what) (as_list what (get ctx what row)) in
            if List.length xs <> nv then
              fail "%s: %s: %s has %d cells, expected %d per variant" file ctx
                what (List.length xs) nv;
            xs
          in
          let totals = cells "totals" in
          let minor = cells "minor_words" in
          let major = cells "major_words" in
          List.iter
            (fun w -> if w < 0.0 then fail "%s: %s: negative allocation" file ctx)
            (minor @ major);
          if String.equal id "b16" then begin
            incr b16_rows;
            (* One batched execution of the K merged invocations must do
               strictly less counter work than the K one-at-a-time runs:
               the set-oriented form pays the base-table scan and hash
               build once. *)
            match (index_of "serve|one", index_of "serve|batch") with
            | Some i, Some j ->
              if not (List.nth totals j < List.nth totals i) then
                fail
                  "%s: %s: serve|batch work total (%.0f) not strictly below \
                   serve|one (%.0f)"
                  file ctx (List.nth totals j) (List.nth totals i)
            | _ -> fail "%s: %s: missing serve|one / serve|batch variants" file ctx
          end;
          if String.equal id "b17" then begin
            incr b17_rows;
            (* Join-order enumeration must never do more counter work than
               the rewriter's order, and on the deep selective chain
               (chain6) it must do strictly less: the enumerator joins the
               filtered relation first, shrinking every later probe. *)
            List.iteri
              (fun i v ->
                match String.index_opt v '|' with
                | Some c
                  when String.equal (String.sub v c (String.length v - c)) "|rw"
                  ->
                  let group = String.sub v 0 c in
                  (match index_of (group ^ "|enum") with
                   | None -> fail "%s: %s: %s has no |enum twin" file ctx v
                   | Some j ->
                     if List.nth totals j > List.nth totals i then
                       fail
                         "%s: %s: %s|enum work total (%.0f) above %s|rw (%.0f)"
                         file ctx group (List.nth totals j) group
                         (List.nth totals i);
                     let strict =
                       String.length group >= 6
                       && String.equal (String.sub group 0 6) "chain6"
                     in
                     if strict && not (List.nth totals j < List.nth totals i)
                     then
                       fail
                         "%s: %s: %s|enum work total (%.0f) not strictly below \
                          %s|rw (%.0f)"
                         file ctx group (List.nth totals j) group
                         (List.nth totals i))
                | _ -> ())
              variants
          end;
          if String.equal id "b18" then incr b18_rows;
          if String.equal id "b14" then begin
            incr b14_rows;
            List.iteri
              (fun i v ->
                match String.index_opt v '|' with
                | Some c
                  when String.equal (String.sub v c (String.length v - c)) "|scan"
                  ->
                  let group = String.sub v 0 c in
                  (match index_of (group ^ "|idx") with
                   | None -> fail "%s: %s: %s has no |idx twin" file ctx v
                   | Some j ->
                     if not (List.nth totals j < List.nth totals i) then
                       fail
                         "%s: %s: %s|idx work total (%.0f) not strictly below \
                          %s|scan (%.0f)"
                         file ctx group (List.nth totals j) group
                         (List.nth totals i))
                | _ -> ())
              variants
          end)
        (as_list (ctx ^ " work") (get ctx "work" exp));
      if String.equal id "b16" then begin
        (* Concurrent-driver rows: both serving modes must be measured at
           1, 2 and 4 pool domains, and at 4 domains batching must win
           throughput and p99 queue wait — the admission queue drains a
           window at a time, so requests stop piling up behind K
           individual executions. *)
        match Json.member "serve" exp with
        | None -> fail "%s: %s: missing \"serve\" section" file ctx
        | Some s ->
          let rows =
            List.map
              (fun row ->
                let mode = as_str (ctx ^ " serve mode") (get ctx "mode" row) in
                let num k = as_num (ctx ^ " serve " ^ k) (get ctx k row) in
                List.iter
                  (fun k ->
                    if num k < 0.0 then
                      fail "%s: %s: serve %s has negative %s" file ctx mode k)
                  [ "requests"; "batches"; "mean_batch"; "queries_per_s";
                    "queue_p50_ns"; "queue_p99_ns"; "service_p50_ns";
                    "service_p99_ns"; "latency_p50_ns"; "latency_p99_ns" ];
                ((int_of_float (num "domains"), mode),
                 (num "queries_per_s", num "queue_p99_ns")))
              (as_list (ctx ^ " serve") s)
          in
          let find d mode =
            match List.assoc_opt (d, mode) rows with
            | Some cell -> cell
            | None ->
              fail "%s: %s: no serve row for domains=%d mode=%s" file ctx d mode
          in
          List.iter
            (fun d ->
              ignore (find d "one");
              ignore (find d "batch"))
            [ 1; 2; 4 ];
          let one_qps, one_queue = find 4 "one" in
          let batch_qps, batch_queue = find 4 "batch" in
          if not (batch_qps > one_qps) then
            fail
              "%s: %s: batched serving (%.0f q/s) not above one-at-a-time \
               (%.0f q/s) at 4 domains"
              file ctx batch_qps one_qps;
          if not (batch_queue <= one_queue) then
            fail
              "%s: %s: batched p99 queue wait (%.0f ns) above one-at-a-time \
               (%.0f ns) at 4 domains"
              file ctx batch_queue one_queue
      end;
      if String.equal id "b18" then begin
        (* Per-variant counter snapshots: the work-table totals cannot
           gate spilling (budgeted runs legitimately do more total work),
           so the spill section carries the breakdown.  Core operator
           work must be budget-invariant — the budgeted run computes the
           same join, just through spill files — while the spill counters
           themselves must be zero resident and nonzero at the 1%
           budget.  The cold-start record must show the binary catalog
           format beating the textual parse. *)
        match Json.member "spill" exp with
        | None -> fail "%s: %s: missing \"spill\" section" file ctx
        | Some s ->
          let cells = as_list (ctx ^ " spill cells") (get ctx "cells" s) in
          let by_name =
            List.map
              (fun row ->
                (as_str (ctx ^ " spill variant") (get ctx "variant" row), row))
              cells
          in
          let find name =
            match List.assoc_opt name by_name with
            | Some row -> row
            | None -> fail "%s: %s: no spill row for variant %S" file ctx name
          in
          let field row k = as_num (ctx ^ " spill " ^ k) (get ctx k row) in
          List.iter
            (fun (fam, core) ->
              let inf = find (fam ^ "|inf") in
              let budgeted =
                [ (fam ^ "|10pct", find (fam ^ "|10pct"));
                  (fam ^ "|1pct", find (fam ^ "|1pct")) ]
              in
              List.iter
                (fun k ->
                  let v0 = field inf k in
                  List.iter
                    (fun (name, row) ->
                      if field row k <> v0 then
                        fail
                          "%s: %s: %s %s (%.0f) differs from %s|inf (%.0f) — \
                           core work must be budget-invariant"
                          file ctx name k (field row k) fam v0)
                    budgeted)
                core;
              List.iter
                (fun k ->
                  if field inf k <> 0.0 then
                    fail "%s: %s: %s|inf ticked %s (%.0f) with no budget" file
                      ctx fam k (field inf k))
                [ "spill_part"; "spill_row"; "spill_bytes" ];
              let _, tight = List.nth budgeted 1 in
              List.iter
                (fun k ->
                  if not (field tight k > 0.0) then
                    fail "%s: %s: %s|1pct did not tick %s" file ctx fam k)
                [ "spill_part"; "spill_bytes" ])
            [ ("grace", [ "scan_row"; "hash_build"; "hash_probe" ]);
              ("pnhl", [ "scan_row"; "pnhl_build" ]) ];
          let cs = get ctx "coldstart" s in
          let num k = as_num (ctx ^ " coldstart " ^ k) (get ctx k cs) in
          List.iter
            (fun k ->
              if not (num k > 0.0) then
                fail "%s: %s: coldstart %s not positive" file ctx k)
            [ "rows"; "text_bytes"; "njqc_bytes"; "text_ns"; "njqc_ns" ];
          if not (num "njqc_ns" < num "text_ns") then
            fail
              "%s: %s: NJQC cold start (%.0f ns) not strictly below the \
               textual parse (%.0f ns)"
              file ctx (num "njqc_ns") (num "text_ns")
      end;
      if String.equal id "b14" then begin
        (* Span summaries: a plan-cache hit must serve the compiled plan
           without re-running any derivation phase. *)
        let span_names variant =
          List.filter_map
            (fun entry ->
              let v = as_str "span variant" (get ctx "variant" entry) in
              if String.equal v variant then
                Some
                  (List.map
                     (fun s -> as_str "span name" (get ctx "name" s))
                     (as_list (ctx ^ " spans") (get ctx "spans" entry)))
              else None)
            (as_list (ctx ^ " spans") (get ctx "spans" exp))
          |> List.concat
        in
        let hit = span_names "cache|hit" in
        let cold = span_names "cache|cold" in
        if cold <> [] || hit <> [] then begin
          List.iter
            (fun phase ->
              if List.mem phase hit then
                fail "%s: %s: cache|hit re-ran the %S phase on a cache hit"
                  file ctx phase)
            [ "translate"; "rewrite"; "plan" ];
          if cold <> [] && not (List.mem "plan" cold) then
            fail "%s: %s: cache|cold shows no \"plan\" span" file ctx
        end;
        (* Serving the cached plan must beat re-deriving it: on bechamel
           estimates when present, on latency-histogram p50 otherwise
           (--work-only runs carry no "time" key). *)
        let ns variant =
          match Json.member "time" exp with
          | Some t ->
            List.find_map
              (fun row ->
                let v = as_str "time variant" (get ctx "variant" row) in
                if String.equal v variant then
                  Some (as_num "ns_per_run" (get ctx "ns_per_run" row))
                else None)
              (as_list (ctx ^ " time") t)
          | None ->
            List.find_map
              (fun (v, p50, _) ->
                if String.equal v variant then Some p50 else None)
              lat
        in
        match (ns "cache|hit", ns "cache|cold") with
        | Some hit_ns, Some cold_ns ->
          if not (hit_ns < cold_ns) then
            fail
              "%s: %s: cache|hit (%.0f ns) not faster than cache|cold (%.0f \
               ns)"
              file ctx hit_ns cold_ns
        | _ -> ()
      end)
    experiments;
  if !b14_rows = 0 then
    fail "%s: no b14 work rows (access-path experiment missing or empty)" file;
  if !b16_rows = 0 then
    fail "%s: no b16 work rows (serving experiment missing or empty)" file;
  if !b17_rows = 0 then
    fail "%s: no b17 work rows (join-order experiment missing or empty)" file;
  if !b18_rows = 0 then
    fail "%s: no b18 work rows (larger-than-memory experiment missing or empty)"
      file

(* ------------------------------------------------------------------ *)
(* --baseline: perf-regression gate                                    *)
(* ------------------------------------------------------------------ *)

(* One experiment, digested for comparison. *)
type exp_digest = {
  d_variants : string list;
  d_work : (int * float list) list;  (* scale -> per-variant totals *)
  d_p99 : (string * float) list;  (* variant -> latency p99 ns *)
}

let digest file doc =
  let experiments =
    as_list file "experiments" (get file "document" "experiments" doc)
  in
  List.map
    (fun exp ->
      let id = as_str file "id" (get file "experiment" "id" exp) in
      let ctx = Printf.sprintf "experiment %s" id in
      let d_variants =
        List.map
          (as_str file (ctx ^ " variant"))
          (as_list file (ctx ^ " variants") (get file ctx "variants" exp))
      in
      let d_work =
        List.map
          (fun row ->
            let n =
              int_of_float (as_num file (ctx ^ " n") (get file ctx "n" row))
            in
            let totals =
              List.map
                (as_num file (ctx ^ " total"))
                (as_list file (ctx ^ " totals") (get file ctx "totals" row))
            in
            (n, totals))
          (as_list file (ctx ^ " work") (get file ctx "work" exp))
      in
      let d_p99 =
        List.map (fun (v, _, p99) -> (v, p99)) (latency_rows file ctx exp)
      in
      (id, { d_variants; d_work; d_p99 }))
    experiments

let check_baseline ~band ?work base_file file =
  let base = digest base_file (parse base_file) in
  let work_only =
    match work with
    | None -> []
    | Some w ->
      List.map (fun (id, d) -> (id, { d with d_p99 = [] })) (digest w (parse w))
  in
  let cur = digest file (parse file) @ work_only in
  let file =
    match work with None -> file | Some w -> Printf.sprintf "%s + %s" file w
  in
  let ids xs = List.map fst xs in
  List.iter
    (fun id ->
      if not (List.mem_assoc id cur) then
        fail "%s: experiment %s present in baseline but missing here" file id)
    (ids base);
  List.iter
    (fun id ->
      if not (List.mem_assoc id base) then
        fail
          "%s: experiment %s has no baseline row — regenerate %s (see \
           tools/baseline_check)"
          file id base_file)
    (ids cur);
  let regressions = ref 0 in
  List.iter
    (fun (id, b) ->
      let c = List.assoc id cur in
      if b.d_variants <> c.d_variants then
        fail
          "%s: experiment %s variant list differs from baseline — regenerate \
           %s alongside the bench change"
          file id base_file;
      (* Work totals are deterministic operation counts: any increase over
         the committed baseline is a genuine plan/executor regression. *)
      List.iter
        (fun (n, cur_totals) ->
          match List.assoc_opt n b.d_work with
          | None -> ()  (* scale not in baseline (e.g. different --scale) *)
          | Some base_totals ->
            if List.length base_totals <> List.length cur_totals then
              fail "%s: experiment %s n=%d: work row width differs" file id n;
            List.iteri
              (fun i cur_t ->
                let base_t = List.nth base_totals i in
                if cur_t > base_t then begin
                  incr regressions;
                  Printf.eprintf
                    "json_check: %s: experiment %s n=%d variant %s: work total \
                     %.0f exceeds baseline %.0f\n"
                    file id n
                    (List.nth c.d_variants i)
                    cur_t base_t
                end)
              cur_totals)
        c.d_work;
      (* Wall clock is noisy: only flag p99 beyond the band, and never
         below an absolute floor — one scheduler preemption on a shared
         single-CPU box costs milliseconds, far more than any
         multiplicative band on a microsecond-scale variant.  The floor
         makes the p99 gate meaningful only for runs long enough that
         timeslice jitter is a fraction of the signal; work totals gate
         the short ones exactly. *)
      List.iter
        (fun (v, cur_p99) ->
          match List.assoc_opt v b.d_p99 with
          | None -> ()
          | Some base_p99 ->
            let limit =
              Float.max (base_p99 *. (1.0 +. band)) (base_p99 +. 5_000_000.0)
            in
            if cur_p99 > limit then begin
              incr regressions;
              Printf.eprintf
                "json_check: %s: experiment %s variant %s: latency p99 %.0f ns \
                 exceeds baseline %.0f ns * %.2f = %.0f ns\n"
                file id v cur_p99 base_p99 (1.0 +. band) limit
            end)
        c.d_p99)
    base;
  if !regressions > 0 then
    fail "%d perf regression(s) against baseline %s" !regressions base_file;
  Printf.printf "json_check: %s within baseline %s (band %.2f)\n" file base_file
    band

let () =
  match Array.to_list Sys.argv with
  | _ :: "--bench" :: [ file ] -> check_bench file
  | _ :: "--baseline" :: base :: file :: rest ->
    let rec options band work = function
      | [] -> (band, work)
      | "--band" :: f :: rest ->
        (match float_of_string_opt f with
         | Some f when f >= 0.0 -> options f work rest
         | _ -> fail "--band expects a non-negative float")
      | "--work" :: w :: rest -> options band (Some w) rest
      | _ ->
        fail "usage: json_check --baseline BASE FILE [--band F] [--work WORKFILE]"
    in
    let band, work = options 3.0 None rest in
    check_baseline ~band ?work base file
  | _ :: file :: keys when file <> "--bench" && file <> "--baseline" ->
    check_keys file keys
  | _ ->
    fail
      "usage: json_check FILE [REQUIRED_KEY...] | json_check --bench FILE | \
       json_check --baseline BASE FILE [--band F] [--work WORKFILE]"
