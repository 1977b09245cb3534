(* njq — command-line driver for the OOSQL/ADL pipeline.

   Subcommands:
     njq parse     -q QUERY             print the OOSQL abstract syntax
     njq translate -q QUERY             print the ADL translation and type
     njq explain   -q QUERY [opts]      print the rewrite derivation + plan
     njq run       -q QUERY [opts]      execute against a generated database
     njq serve     -q TEMPLATE [opts]   concurrent prepared-query serving
     njq schema                         print the supplier-part schema

   Queries run against the paper's supplier-part-delivery schema on a
   deterministic generated database; generation knobs are flags. *)

open Njq_adl
module Strategy = Njq_core.Strategy
module Span = Njq_obs.Span
module Json = Njq_obs.Json
module Qlog = Njq_obs.Qlog
module Clock = Njq_obs.Clock
module Metrics = Njq_obs.Metrics

let schema = Njq_workload.Queries.schema

let mode_name = function
  | Strategy.Nestjoin_always -> "nestjoin"
  | Strategy.Flat_join_when_safe -> "flatjoin"
  | Strategy.Outerjoin -> "outerjoin"

(* ---------------- generation flags ---------------- *)

open Cmdliner

let query_arg =
  let doc = "The OOSQL query text." in
  Arg.(required & opt (some string) None & info [ "q"; "query" ] ~docv:"QUERY" ~doc)

let scale_arg =
  let doc = "Rows per extent of the generated database." in
  Arg.(value & opt int 64 & info [ "n"; "scale" ] ~docv:"N" ~doc)

let seed_arg =
  let doc = "Generator seed (runs are deterministic per seed)." in
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)

let dangling_arg =
  let doc = "Fraction of dangling part references." in
  Arg.(value & opt float 0.0 & info [ "dangling" ] ~docv:"RATE" ~doc)

let empty_arg =
  let doc = "Fraction of suppliers with an empty parts_supplied set." in
  Arg.(value & opt float 0.1 & info [ "empty" ] ~docv:"RATE" ~doc)

let mode_arg =
  let modes =
    [ ("nestjoin", Strategy.Nestjoin_always);
      ("flatjoin", Strategy.Flat_join_when_safe);
      ("outerjoin", Strategy.Outerjoin) ]
  in
  let doc =
    "Grouping mode: how correlated subqueries that need grouping are \
     unnested (nestjoin, flatjoin, outerjoin)."
  in
  Arg.(value & opt (enum modes) Strategy.Nestjoin_always & info [ "mode" ] ~doc)

let no_opt_arg =
  let doc = "Skip logical optimization (pure nested-loop execution)." in
  Arg.(value & flag & info [ "no-opt" ] ~doc)

let domains_arg =
  let doc =
    "Execute with this many domains: the planner runs filters and maps \
     over large inputs as morsels, and those morsels and the partitions \
     of a join partitioned by --mem-budget run as tasks on the engine's \
     domain pool.  Results and work counters are the same at every domain \
     count.  0 (the default) defers to the NJQ_DOMAINS environment \
     variable; 1 is the sequential engine."
  in
  Arg.(value & opt int 0 & info [ "domains" ] ~docv:"K" ~doc)

let apply_domains k = if k > 0 then Njq_engine.Pool.set_domains k

let mem_budget_arg =
  let doc =
    "Engine memory budget in build-side rows, with an optional k or m \
     suffix (e.g. 1k = 1024 rows).  An inner, semi or anti hash join whose \
     build side is estimated past the budget is Grace-partitioned to temp \
     files under NJQ_TMPDIR and processed one resident partition at a \
     time.  Results are identical at every budget.  Unset means unlimited \
     (everything stays resident)."
  in
  Arg.(value & opt (some string) None
       & info [ "mem-budget" ] ~docv:"N[k|m]" ~doc)

let apply_mem_budget = function
  | None -> ()
  | Some s ->
    (match Njq_engine.Memory.parse s with
     | Some n -> Njq_engine.Memory.budget := n
     | None ->
       Fmt.epr "--mem-budget: expected a positive row count like 4096 or \
                1k, got %S@." s;
       exit 1)

let counters_arg =
  let doc = "Print work counters after execution." in
  Arg.(value & flag & info [ "counters" ] ~doc)

(* A file named on the command line that cannot be opened, read or
   written: one line naming it, exit 2, like a catalog that will not
   load.  [Sys_error] from an open starts with the path; from reading a
   directory it does not name the file at all. *)
let file_error ~what path msg =
  let prefix = path ^ ": " in
  let msg =
    if String.starts_with ~prefix msg then
      String.sub msg (String.length prefix)
        (String.length msg - String.length prefix)
    else msg
  in
  Fmt.epr "cannot %s %s: %s@." what path msg;
  exit 2

let on_file ~what path f =
  try f () with Sys_error msg -> file_error ~what path msg

(* ---------------- query log ---------------- *)

let env_qlog () =
  match Sys.getenv_opt "NJQ_QLOG" with
  | None | Some "" -> None
  | Some path -> Some path

let env_slow_ms () =
  match Sys.getenv_opt "NJQ_SLOW_MS" with
  | None | Some "" -> None
  | Some s -> float_of_string_opt (String.trim s)

let qlog_arg =
  let doc =
    "Append one structured event (JSONL) per executed query to this file: \
     query hash, plan fingerprint, cache hit/miss, rows, work counters, \
     GC words, wall+CPU time, max q-error.  Defaults to the NJQ_QLOG \
     environment variable; aggregate with $(b,njq top)."
  in
  Arg.(value & opt (some string) None & info [ "qlog" ] ~docv:"FILE" ~doc)

let slow_ms_arg =
  let doc =
    "Slow-query threshold in milliseconds: qlog events under it are \
     dropped, and a query at or over it prints a notice on stderr.  \
     Defaults to the NJQ_SLOW_MS environment variable."
  in
  Arg.(value & opt (some float) None & info [ "slow-ms" ] ~docv:"MS" ~doc)

let open_qlog ?slow_ms path =
  on_file ~what:"open query log" path (fun () -> Qlog.open_sink ?slow_ms path)

(* Append one event for a measured query to [sink]; the event's work
   total is the deterministic cost of the query.  [max_qerror] is 1.0
   when the run did not profile. *)
let log_query sink ~slow_ms ~query ~fingerprint ~hit ~max_qerror v
    (u : Metrics.usage) =
  let slow =
    match slow_ms with Some t -> Clock.ns_to_ms u.wall_ns >= t | None -> false
  in
  Qlog.log sink
    { Qlog.ts_ns = Clock.now_ns ();
      query_hash = Qlog.hash_hex (Njq_engine.Plancache.normalize query);
      fingerprint;
      cache = (if hit then "hit" else "miss");
      rows = Value.set_size v;
      work = u.work;
      work_total = List.fold_left (fun acc (_, n) -> acc + n) 0 u.work;
      minor_words = u.minor_words;
      major_words = u.major_words;
      wall_ns = u.wall_ns;
      cpu_ns = int_of_float (u.cpu_s *. 1e9);
      queue_ns = 0;
      batch = 1;
      max_qerror;
      spilled = Option.value ~default:0 (List.assoc_opt "spill_bytes" u.work);
      slow };
  if slow then
    Fmt.epr "slow query: %.3f ms (>= %.1f ms) fp=%s@."
      (Clock.ns_to_ms u.wall_ns)
      (Option.value ~default:0.0 slow_ms)
      fingerprint

let schema_arg =
  let doc = "Load class definitions from a file instead of the built-in \
             supplier-part-delivery schema.  Without --db the extents start \
             empty (data generation only exists for the built-in schema)." in
  Arg.(value & opt (some string) None & info [ "schema" ] ~docv:"FILE" ~doc)

let db_arg =
  let doc = "Load the database from a file saved with --save-db instead of \
             generating one." in
  Arg.(value & opt (some string) None & info [ "db" ] ~docv:"FILE" ~doc)

let save_db_arg =
  let doc = "Save the (generated or loaded) database to a file." in
  Arg.(value & opt (some string) None & info [ "save-db" ] ~docv:"FILE" ~doc)

let index_arg =
  let doc =
    "Declare an index before planning: TABLE.ATTR[,ATTR...][:hash|:sorted] \
     (default hash; sorted indexes also answer range predicates on their \
     first attribute).  The planner rewrites sargable filters and joins \
     over the table into index access paths when the cost model prices \
     them cheaper.  Repeatable."
  in
  Arg.(value & opt_all string [] & info [ "index" ] ~docv:"SPEC" ~doc)

let apply_indexes cat specs =
  List.iter
    (fun spec ->
      let spec, kind =
        match String.rindex_opt spec ':' with
        | Some i ->
          let k = String.sub spec (i + 1) (String.length spec - i - 1) in
          let kind =
            match k with
            | "hash" -> Catalog.Hash_index
            | "sorted" -> Catalog.Sorted_index
            | _ ->
              Fmt.epr "--index: unknown kind %S (expected hash or sorted)@." k;
              exit 1
          in
          (String.sub spec 0 i, kind)
        | None -> (spec, Catalog.Hash_index)
      in
      match String.index_opt spec '.' with
      | None ->
        Fmt.epr "--index: expected TABLE.ATTRS, got %S@." spec;
        exit 1
      | Some i ->
        let table = String.sub spec 0 i in
        let attrs =
          String.split_on_char ','
            (String.sub spec (i + 1) (String.length spec - i - 1))
        in
        (match Catalog.create_index cat ~table ~kind ~attrs () with
         | (_ : string) -> ()
         | exception Invalid_argument msg ->
           Fmt.epr "--index %s: %s@." spec msg;
           exit 1
         | exception Catalog.Unknown_table t ->
           Fmt.epr "--index %s: unknown table %s@." spec t;
           exit 1))
    specs

let load_schema = function
  | None -> schema
  | Some path ->
    Njq_oosql.Parser.parse_schema
      (on_file ~what:"read schema" path (fun () ->
           In_channel.with_open_text path In_channel.input_all))

let make_catalog ?db ?save_db ?schema_file scale seed dangling empty =
  let cat =
    match db, schema_file with
    | Some path, _ ->
      (* Sniff the magic: --db accepts both the textual format and NJQC
         binary catalogs written by `njq catalog pack`.  A file that will
         not load is a one-line error naming it, exit 2. *)
      (try
         if Njq_engine.Rowcodec.is_njqc path then
           Njq_engine.Rowcodec.load_catalog path
         else Serialize.load_catalog_file path
       with
       | Njq_engine.Rowcodec.Corrupt msg | Serialize.Parse_error msg
       | Sys_error msg ->
         file_error ~what:"load catalog" path msg)
    | None, Some _ -> Njq_oosql.Schema.to_catalog (load_schema schema_file)
    | None, None ->
      Njq_workload.Generator.catalog
        { (Njq_workload.Generator.scaled ~seed scale) with
          dangling_rate = dangling;
          empty_rate = empty }
  in
  Option.iter
    (fun path ->
      on_file ~what:"save database" path (fun () ->
          Serialize.save_catalog_file cat path))
    save_db;
  cat

(* The strategy options of a grouping mode, for [Planner.derive]: every
   query command derives its plan there, so `run`, the REPL and the plan
   cache execute the plan `explain` shows. *)
let options_of mode =
  { Strategy.default_options with Strategy.grouping_mode = mode }

(* Parse query text that may include view definitions (define v as ...;). *)
let parse_query_text q =
  let prog = Njq_oosql.Parser.parse_program q in
  if prog.Njq_oosql.Ast.classes <> [] then begin
    Fmt.epr "class definitions are not accepted here (the schema is built in)@.";
    exit 1
  end;
  match Njq_oosql.Views.expand_program prog with
  | Some e -> e
  | None ->
    Fmt.epr "no query in input@.";
    exit 1

(* Print the one-line report of an error in a query or its execution;
   any other exception is a bug and propagates. *)
let report = function
  | Njq_oosql.Parser.Parse_error (msg, pos) ->
    Fmt.epr "parse error at line %d, column %d: %s@." pos.Njq_oosql.Ast.line
      pos.Njq_oosql.Ast.col msg
  | Njq_oosql.Lexer.Lex_error (msg, pos) ->
    Fmt.epr "lexical error at line %d, column %d: %s@." pos.Njq_oosql.Ast.line
      pos.Njq_oosql.Ast.col msg
  | Njq_oosql.Translate.Translate_error (msg, pos) ->
    Fmt.epr "type error at line %d, column %d: %s@." pos.Njq_oosql.Ast.line
      pos.Njq_oosql.Ast.col msg
  | Adlsyntax.Parse_error msg -> Fmt.epr "ADL parse error: %s@." msg
  | Catalog.Unknown_table t -> Fmt.epr "unknown table %s@." t
  | Value.Type_error msg | Vtype.Type_error msg ->
    Fmt.epr "runtime type error: %s@." msg
  | Eval.Eval_error msg | Njq_engine.Exec.Exec_error msg ->
    Fmt.epr "runtime error: %s@." msg
  | e -> raise e

(* Run a command: a reported error exits 1. *)
let or_die f =
  try f () with
  | e ->
    report e;
    exit 1

(* ---------------- subcommands ---------------- *)

let parse_cmd =
  let run q =
    or_die (fun () ->
        let ast = parse_query_text q in
        Fmt.pr "%s@." (Njq_oosql.Sqlpretty.to_string ast))
  in
  Cmd.v (Cmd.info "parse" ~doc:"Parse an OOSQL query and print it back")
    Term.(const run $ query_arg)

let translate_cmd =
  let run q =
    or_die (fun () ->
        let adl, ty = Njq_oosql.Translate.query schema (parse_query_text q) in
        Fmt.pr "type: %a@.@.%a@." Vtype.pp ty Pretty.pp adl)
  in
  Cmd.v
    (Cmd.info "translate" ~doc:"Translate an OOSQL query to the ADL algebra")
    Term.(const run $ query_arg)

let analyze_arg =
  let doc = "Also execute the plan, printing per-node cardinalities, work \
             counters and timings (explain analyze)." in
  Arg.(value & flag & info [ "analyze" ] ~doc)

let json_arg =
  let doc = "Emit a single JSON document: rewrite derivation spans, the \
             physical plan, and with --analyze the per-node estimated vs \
             actual cardinalities with q-errors." in
  Arg.(value & flag & info [ "json" ] ~doc)

let trace_out_arg =
  let doc = "Write the pipeline spans as a Chrome trace_event file \
             (load in chrome://tracing or Perfetto)." in
  Arg.(value & opt (some string) None & info [ "trace-out" ] ~docv:"FILE" ~doc)

let adl_flag_arg =
  let doc = "Interpret the query text as a raw ADL algebra expression \
             (the njq adl syntax: join[x,y : p](l, r), ...) instead of \
             OOSQL." in
  Arg.(value & flag & info [ "adl" ] ~doc)

(* The enumerator's per-region reports, as recorded by the planning call
   that produced the displayed plan. *)
let enumeration_json regions =
  Json.List
    (List.map
       (fun r ->
         Json.Obj
           [ ("relations",
              Json.List
                (List.map (fun s -> Json.Str s)
                   r.Njq_engine.Joinorder.relations));
             ("considered", Json.Int r.Njq_engine.Joinorder.considered);
             ("pruned", Json.Int r.Njq_engine.Joinorder.pruned);
             ("chosen_cost", Json.Float r.Njq_engine.Joinorder.chosen_cost);
             ("rewriter_cost", Json.Float r.Njq_engine.Joinorder.rewriter_cost);
             ("reordered", Json.Bool r.Njq_engine.Joinorder.reordered);
             ("chosen_fingerprint",
              Json.Str r.Njq_engine.Joinorder.chosen_fingerprint);
             ("rewriter_fingerprint",
              Json.Str r.Njq_engine.Joinorder.rewriter_fingerprint) ])
       regions)

let pp_enumeration ppf regions =
  match regions with
  | [] -> Fmt.pf ppf "join enumeration: no join region@."
  | _ ->
    List.iter
      (fun r ->
        Fmt.pf ppf
          "join enumeration: {%s}@.  considered %d plans (%d pruned); \
           chosen cost %.1f vs rewriter %.1f%s@.  fingerprint %s \
           (rewriter %s)@."
          (String.concat ", " r.Njq_engine.Joinorder.relations)
          r.Njq_engine.Joinorder.considered r.Njq_engine.Joinorder.pruned
          r.Njq_engine.Joinorder.chosen_cost
          r.Njq_engine.Joinorder.rewriter_cost
          (if r.Njq_engine.Joinorder.reordered then " [reordered]"
           else " [kept rewriter order]")
          r.Njq_engine.Joinorder.chosen_fingerprint
          r.Njq_engine.Joinorder.rewriter_fingerprint)
      regions

let explain_cmd =
  let run q scale seed dangling empty mode analyze json trace_out domains
      indexes raw_adl mem_budget =
    or_die (fun () ->
        apply_domains domains;
        apply_mem_budget mem_budget;
        let tracing = json || Option.is_some trace_out in
        if tracing then Span.start_tracing ();
        let cat = make_catalog scale seed dangling empty in
        apply_indexes cat indexes;
        let report, plan, regions, analysis =
          Span.with_span "explain" (fun () ->
              let adl =
                if raw_adl then Adlsyntax.of_string q
                else
                  fst (Njq_oosql.Translate.query schema (parse_query_text q))
              in
              (* Re-check the translation against the concrete catalog; this
                 also puts the typecheck span on the trace. *)
              (match Typecheck.check_closed cat adl with
               | Ok _ -> ()
               | Error msg ->
                 Fmt.epr "warning: typecheck against catalog failed: %s@." msg);
              let report, plan =
                Njq_engine.Planner.derive ~options:(options_of mode) cat adl
              in
              let regions = !Njq_engine.Joinorder.last_report in
              let analysis =
                if analyze then
                  Some
                    (Span.with_span "execute" (fun () ->
                         Njq_engine.Profile.run cat plan))
                else None
              in
              (report, plan, regions, analysis))
        in
        let spans =
          if tracing then begin
            Span.stop_tracing ();
            Span.finished ()
          end
          else []
        in
        Option.iter
          (fun path ->
            on_file ~what:"write trace" path (fun () ->
                Njq_obs.Export.write_chrome_trace path spans);
            if not json then Fmt.pr "trace written to %s@." path)
          trace_out;
        if json then begin
          let phases =
            List.map
              (fun ph ->
                Json.Obj
                  [ ("phase", Json.Str ph.Strategy.phase);
                    ("steps", Json.Int (List.length ph.Strategy.steps)) ])
              report.Strategy.phases
          in
          let doc =
            Json.Obj
              ([ ("query", Json.Str q);
                 ("scale", Json.Int scale);
                 ("seed", Json.Int seed) ]
              @ (if Njq_engine.Memory.unlimited () then []
                 else
                   [ ("mem_budget", Json.Int !Njq_engine.Memory.budget) ])
              @ [ ("phases", Json.List phases);
                 ("plan", Json.Str (Fmt.str "%a" Njq_engine.Plan.pp plan));
                 ("pipelines",
                  Json.Str
                    (Fmt.str "%a" Njq_engine.Plan.pp_pipelines plan));
                 ("enumeration", enumeration_json regions);
                 ("derivation", Njq_obs.Export.spans_to_json spans) ]
              @
              match analysis with
              | None -> []
              | Some (v, prof) ->
                [ ("analyze",
                   Json.Obj
                     [ ("result_rows", Json.Int (Value.set_size v));
                       ("fingerprint",
                        Json.Str (Njq_engine.Plan.fingerprint plan));
                       ("max_qerror",
                        Json.Float (Njq_engine.Profile.max_qerror prof));
                       ("plan", Njq_engine.Profile.to_json prof) ]) ])
          in
          print_endline (Json.to_string ~pretty:true doc)
        end
        else begin
          Fmt.pr "%a@.@.plan:@.%a@." Strategy.pp_report report
            Njq_engine.Plan.pp plan;
          if not (Njq_engine.Memory.unlimited ()) then
            Fmt.pr
              "@.mem budget: %d build-side rows — over-budget hash joins \
               run as Grace joins with spill partitions under %s@."
              !Njq_engine.Memory.budget
              (Njq_engine.Rowcodec.temp_dir ());
          Fmt.pr "@.pipelines (~> fused edge, => materialized edge):@.%a"
            Njq_engine.Plan.pp_pipelines plan;
          Fmt.pr "@.%a" pp_enumeration regions;
          match analysis with
          | None -> ()
          | Some (v, prof) ->
            (* The fingerprint joins this table against `njq top` rows. *)
            Fmt.pr "@.analyze (%d result rows):@.fingerprint: %s@.%a"
              (Value.set_size v)
              (Njq_engine.Plan.fingerprint plan)
              Njq_engine.Profile.pp prof
        end)
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:"Show the rewrite derivation and the physical plan of a query")
    Term.(
      const run $ query_arg $ scale_arg $ seed_arg $ dangling_arg $ empty_arg
      $ mode_arg $ analyze_arg $ json_arg $ trace_out_arg
      $ domains_arg $ index_arg $ adl_flag_arg $ mem_budget_arg)

let refresh_arg =
  let doc = "Recompute statistics even when a cached snapshot exists for \
             the catalog's current epoch." in
  Arg.(value & flag & info [ "refresh" ] ~doc)

let stats_cmd =
  let run scale seed dangling empty db schema_file json refresh =
    or_die (fun () ->
        let cat = make_catalog ?db ?schema_file scale seed dangling empty in
        let stats = Njq_engine.Stats.cached ~refresh cat in
        if json then begin
          let opt_int = function None -> Json.Null | Some n -> Json.Int n in
          let table t =
            let fields =
              try Vtype.fields (Catalog.row_type cat t) with _ -> []
            in
            let cols =
              List.map
                (fun (attr, ty) ->
                  let base =
                    [ ("attr", Json.Str attr);
                      ("type", Json.Str (Vtype.show ty)) ]
                  in
                  let stat =
                    match Njq_engine.Stats.column stats ~table:t ~attr with
                    | None -> []
                    | Some { Njq_engine.Stats.ndv; lo; hi } ->
                      [ ("ndv", Json.Int ndv); ("lo", opt_int lo);
                        ("hi", opt_int hi) ]
                  in
                  Json.Obj (base @ stat))
                fields
            in
            Json.Obj
              [ ("name", Json.Str t);
                ("cardinality", Json.Int (Catalog.cardinality cat t));
                ("columns", Json.List cols) ]
          in
          print_endline
            (Json.to_string ~pretty:true
               (Json.Obj
                  [ ("tables",
                     Json.List (List.map table (Catalog.table_names cat))) ]))
        end
        else Fmt.pr "%a@." Njq_engine.Stats.pp stats)
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:"Analyze the database and print per-table cardinalities and \
             per-column NDV/min/max statistics")
    Term.(
      const run $ scale_arg $ seed_arg $ dangling_arg $ empty_arg $ db_arg
      $ schema_arg $ json_arg $ refresh_arg)

let format_arg =
  let doc = "Output format: adl (value notation), json, or csv." in
  Arg.(value & opt (enum [ ("adl", `Adl); ("json", `Json); ("csv", `Csv) ]) `Adl
       & info [ "format" ] ~docv:"FMT" ~doc)

(* Prepare a query through the plan cache: translate it once (a mistyped
   literal fails here, on a hit as on a miss) and, on a miss, derive the
   plan of that translation.  [text] keys the cache.  Returns the plan,
   whether it came from the cache, and the query's type. *)
let prepare ?(optimize = true) ~schema ~mode ~options cat text query =
  let adl, ty = Njq_oosql.Translate.query schema query in
  let plan, hit =
    Njq_engine.Plancache.find_or_derive cat ~options text ~derive:(fun () ->
        snd
          (Njq_engine.Planner.derive ~optimize ~options:(options_of mode) cat
             adl))
  in
  (plan, hit, ty)

let run_cmd =
  let run q scale seed dangling empty mode no_opt counters db save_db format
      schema_file domains indexes qlog slow_ms mem_budget =
    or_die (fun () ->
        apply_domains domains;
        apply_mem_budget mem_budget;
        let cat = make_catalog ?db ?save_db ?schema_file scale seed dangling empty in
        apply_indexes cat indexes;
        (* Derivation goes through the plan cache so the qlog's hit/miss
           bit is real (the repl and a future server share the entry). *)
        let options = Fmt.str "run/%s/noopt=%b" (mode_name mode) no_opt in
        let plan, hit, _ =
          prepare ~optimize:(not no_opt) ~schema:(load_schema schema_file)
            ~mode ~options cat q (parse_query_text q)
        in
        let qlog = match qlog with Some _ -> qlog | None -> env_qlog () in
        let slow_ms =
          match slow_ms with Some _ -> slow_ms | None -> env_slow_ms ()
        in
        let v, u =
          match qlog with
          | None -> Metrics.measure (fun () -> Njq_engine.Exec.run cat plan)
          | Some path ->
            (* Profiled execution: the event records the worst per-node
               cardinality q-error alongside the costs. *)
            let sink = open_qlog ?slow_ms path in
            Fun.protect
              ~finally:(fun () -> Qlog.close sink)
              (fun () ->
                let (v, prof), u =
                  Metrics.measure (fun () -> Njq_engine.Profile.run cat plan)
                in
                log_query sink ~slow_ms ~query:q
                  ~fingerprint:(Njq_engine.Plan.fingerprint plan) ~hit
                  ~max_qerror:(Njq_engine.Profile.max_qerror prof) v u;
                (v, u))
        in
        (match format with
         | `Adl ->
           Fmt.pr "%a@." Value.pp v;
           Fmt.pr "(%d rows)@." (Value.set_size v)
         | `Json -> print_endline (Serialize.value_to_json v)
         | `Csv -> print_string (Serialize.rows_to_csv v));
        if counters then Fmt.pr "counters: %a@." Metrics.pp_counts u.work)
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Execute a query against a generated database")
    Term.(
      const run $ query_arg $ scale_arg $ seed_arg $ dangling_arg $ empty_arg
      $ mode_arg $ no_opt_arg $ counters_arg $ db_arg $ save_db_arg
      $ format_arg $ schema_arg $ domains_arg $ index_arg
      $ qlog_arg $ slow_ms_arg $ mem_budget_arg)

let adl_cmd =
  let run q scale seed dangling empty mode no_opt counters db schema_file
      domains mem_budget =
    or_die (fun () ->
        apply_domains domains;
        apply_mem_budget mem_budget;
        let cat = make_catalog ?db ?schema_file scale seed dangling empty in
        let adl = Adlsyntax.of_string q in
        match Typecheck.check_closed cat adl with
        | Error msg ->
          Fmt.epr "type error: %s@." msg;
          exit 1
        | Ok ty ->
          let report, plan =
            Njq_engine.Planner.derive ~optimize:(not no_opt)
              ~options:(options_of mode) cat adl
          in
          let final = report.Strategy.output in
          Fmt.pr "-- type: %a@." Vtype.pp ty;
          if not (Expr.equal final adl) then
            Fmt.pr "-- rewritten: %s@." (Adlsyntax.to_string final);
          let v, u = Metrics.measure (fun () -> Njq_engine.Exec.run cat plan) in
          Fmt.pr "%a@.(%d rows)@." Value.pp v (Value.set_size v);
          if counters then Fmt.pr "counters: %a@." Metrics.pp_counts u.work)
  in
  Cmd.v
    (Cmd.info "adl"
       ~doc:"Execute a raw ADL algebra expression (textual syntax: \
             select[x : p](@T), semijoin[x,y : p](l, r), ...)")
    Term.(
      const run $ query_arg $ scale_arg $ seed_arg $ dangling_arg $ empty_arg
      $ mode_arg $ no_opt_arg $ counters_arg $ db_arg $ schema_arg
      $ domains_arg $ mem_budget_arg)

let schema_cmd =
  let run () =
    Fmt.pr "%a@." Njq_oosql.Sqlpretty.pp_schema schema;
    Fmt.pr "@.ADL extent types:@.";
    let cat = Njq_oosql.Schema.to_catalog schema in
    List.iter
      (fun t -> Fmt.pr "  %s : { %a }@." t Vtype.pp (Catalog.row_type cat t))
      (Catalog.table_names cat)
  in
  Cmd.v
    (Cmd.info "schema" ~doc:"Print the built-in supplier-part-delivery schema")
    Term.(const run $ const ())

(* Interactive loop: read a query per line (terminated by ';'), execute it
   against one generated database, with :explain, :mode and :help
   directives. *)
let repl_cmd =
  let run scale seed dangling empty =
    let cat = make_catalog scale seed dangling empty in
    let mode = ref Strategy.Nestjoin_always in
    let views : (string * Njq_oosql.Ast.expr) list ref = ref [] in
    (* With NJQ_QLOG set, one sink stays open for the whole session —
       repeated queries hit the plan cache, so the logged hit/miss bits
       (and `njq top`'s hit rate) are meaningful here. *)
    let slow_ms = env_slow_ms () in
    let qsink = Option.map (open_qlog ?slow_ms) (env_qlog ()) in
    Fmt.pr
      "njq repl — supplier-part-delivery database with %d rows per extent.@.\
       Terminate queries with ';'.  Directives: :explain <query>;  \
       :mode nestjoin|flatjoin|outerjoin;  :cache;  :quit@."
      scale;
    let buffer = Buffer.create 256 in
    let rec read_statement () =
      Fmt.pr "njq> %!";
      match In_channel.input_line stdin with
      | None -> None
      | Some line ->
        Buffer.add_string buffer line;
        Buffer.add_char buffer '\n';
        let text = Buffer.contents buffer in
        if String.contains line ';' || String.length (String.trim line) = 0
           || (String.length (String.trim text) > 0 && (String.trim text).[0] = ':')
        then begin
          Buffer.clear buffer;
          Some (String.trim text)
        end
        else read_statement ()
    in
    let execute text =
      let prog = Njq_oosql.Parser.parse_program text in
      views := !views @ prog.Njq_oosql.Ast.defines;
      match prog.Njq_oosql.Ast.query with
      | None -> List.iter (fun (n, _) -> Fmt.pr "view %s defined@." n) prog.Njq_oosql.Ast.defines
      | Some q ->
        let options =
          Fmt.str "%s/v%d" (mode_name !mode) (List.length !views)
        in
        let plan, hit, ty =
          prepare ~schema ~mode:!mode ~options cat text
            (Njq_oosql.Views.expand !views q)
        in
        let v, u = Metrics.measure (fun () -> Njq_engine.Exec.run cat plan) in
        Option.iter
          (fun sink ->
            log_query sink ~slow_ms ~query:text
              ~fingerprint:(Njq_engine.Plan.fingerprint plan) ~hit
              ~max_qerror:1.0 v u)
          qsink;
        Fmt.pr "%a@.(%d rows of type %a; work: %a)@." Value.pp v
          (Value.set_size v) Vtype.pp ty Metrics.pp_counts u.work
    in
    let explain text =
      let q = Njq_oosql.Views.expand !views (parse_query_text text) in
      let adl, _ = Njq_oosql.Translate.query schema q in
      let report, plan =
        Njq_engine.Planner.derive ~options:(options_of !mode) cat adl
      in
      Fmt.pr "%a@.plan: %a@." Strategy.pp_report report Njq_engine.Plan.pp plan
    in
    let rec loop () =
      match read_statement () with
      | None -> ()
      | Some "" -> loop ()
      | Some ":quit" | Some ":q" -> ()
      | Some ":cache" ->
        Fmt.pr "plan cache: %d entries; hits %d  misses %d  evictions %d@."
          (Njq_engine.Plancache.size ())
          (Njq_engine.Plancache.hits ())
          (Njq_engine.Plancache.misses ())
          (Njq_engine.Plancache.evictions ());
        loop ()
      | Some text ->
        (try
           if String.length text > 8 && String.sub text 0 8 = ":explain" then
             explain (String.sub text 8 (String.length text - 8))
           else if String.length text > 6 && String.sub text 0 6 = ":mode " then begin
             (match String.trim (String.sub text 6 (String.length text - 6)) with
              | "nestjoin" -> mode := Strategy.Nestjoin_always
              | "flatjoin" -> mode := Strategy.Flat_join_when_safe
              | "outerjoin" -> mode := Strategy.Outerjoin
              | m -> Fmt.pr "unknown mode %s@." m);
             Fmt.pr "ok@."
           end
           else execute text
         with e ->
           (* Reported as the commands report it; the session goes on. *)
           report e);
        loop ()
    in
    Fun.protect ~finally:(fun () -> Option.iter Qlog.close qsink) loop
  in
  Cmd.v
    (Cmd.info "repl" ~doc:"Interactive query loop against a generated database")
    Term.(const run $ scale_arg $ seed_arg $ dangling_arg $ empty_arg)

(* ---------------- serving ---------------- *)

let template_arg =
  let doc =
    "The prepared-query template: OOSQL with ?0, ?1, ... parameter \
     placeholders."
  in
  Arg.(required & opt (some string) None & info [ "q"; "query" ] ~docv:"TEMPLATE" ~doc)

let clients_arg =
  let doc = "Concurrent client domains issuing invocations." in
  Arg.(value & opt int 4 & info [ "clients" ] ~docv:"N" ~doc)

let requests_arg =
  let doc = "Invocations issued by each client." in
  Arg.(value & opt int 64 & info [ "requests" ] ~docv:"N" ~doc)

let burst_arg =
  let doc =
    "Outstanding invocations per client: each client sends a burst and \
     waits for all its replies before the next."
  in
  Arg.(value & opt int 4 & info [ "burst" ] ~docv:"N" ~doc)

let window_arg =
  let doc =
    "Largest parameter batch the scheduler merges into one set-oriented \
     execution."
  in
  Arg.(value & opt int 16 & info [ "window" ] ~docv:"K" ~doc)

let no_batching_arg =
  let doc =
    "Serve one invocation at a time (the contrast case: same admission \
     queue, no parameter batching)."
  in
  Arg.(value & flag & info [ "no-batching" ] ~doc)

let params_arg =
  let doc =
    "One parameter vector, comma-separated (e.g. --params red or \
     --params 25,red).  Repeatable; clients cycle through the vectors.  \
     Values parse as int, then float, else string."
  in
  Arg.(value & opt_all string [] & info [ "params" ] ~docv:"V0[,V1...]" ~doc)

let parse_param_value s =
  match int_of_string_opt s with
  | Some n -> Value.int n
  | None ->
    (match float_of_string_opt s with
     | Some f -> Value.float f
     | None -> Value.string s)

let serve_cmd =
  let run q scale seed dangling empty mode db schema_file domains
      indexes clients requests burst window no_batching params
      json qlog slow_ms mem_budget =
    or_die (fun () ->
        apply_domains domains;
        apply_mem_budget mem_budget;
        let cat = make_catalog ?db ?schema_file scale seed dangling empty in
        apply_indexes cat indexes;
        let schema = load_schema schema_file in
        let translate text =
          let adl, _ = Njq_oosql.Translate.query schema (parse_query_text text) in
          Strategy.optimize ~options:(options_of mode) cat adl
        in
        let h =
          Njq_engine.Serve.prepare cat
            ~options:(Fmt.str "serve/%s" (mode_name mode))
            ~translate q
        in
        let vectors =
          match params with
          | [] ->
            if Njq_engine.Serve.nparams h > 0 then begin
              Fmt.epr "template takes %d parameter(s); pass --params@."
                (Njq_engine.Serve.nparams h);
              exit 1
            end;
            [| [] |]
          | ps ->
            Array.of_list
              (List.map
                 (fun p -> List.map parse_param_value (String.split_on_char ',' p))
                 ps)
        in
        let params ~client ~seq =
          (h, vectors.((client + seq) mod Array.length vectors))
        in
        let qlog = match qlog with Some _ -> qlog | None -> env_qlog () in
        let slow_ms =
          match slow_ms with Some _ -> slow_ms | None -> env_slow_ms ()
        in
        let sink = Option.map (open_qlog ?slow_ms) qlog in
        let replies, u =
          Metrics.measure (fun () ->
              Njq_engine.Serve.run ~batching:(not no_batching) ~window ~burst
                ~clients ~requests ~params ())
        in
        let wall_ns = u.wall_ns in
        (* Batches the scheduler ran as one bound plan per invocation
           because the cost model priced that below the batched plan. *)
        let iterated =
          Option.value ~default:0 (List.assoc_opt "serve_batch_iterated" u.work)
        in
        let module H = Njq_obs.Histogram in
        let queue = H.create () and service = H.create () in
        let rows = ref 0 and inv_batch = ref 0.0 in
        List.iter
          (fun (r : Njq_engine.Serve.reply) ->
            H.record queue r.queue_ns;
            H.record service r.service_ns;
            rows := !rows + Value.set_size r.value;
            inv_batch := !inv_batch +. (1.0 /. float_of_int r.batch))
          replies;
        let n = List.length replies in
        let batches = int_of_float (Float.round !inv_batch) in
        let mean_batch =
          if batches = 0 then 0.0 else float_of_int n /. float_of_int batches
        in
        let qps = float_of_int n /. (float_of_int wall_ns /. 1e9) in
        (* One qlog event per reply: queue wait and batch size are the
           serving-specific fields; the shared batch execution cost shows
           up as each member's service time.  Per-request work counters
           are not attributable inside a merged batch, so they stay 0. *)
        Option.iter
          (fun sink ->
            Fun.protect
              ~finally:(fun () -> Qlog.close sink)
              (fun () ->
                let fp = Njq_engine.Serve.fingerprint h in
                let qh = Qlog.hash_hex (Njq_engine.Plancache.normalize q) in
                List.iter
                  (fun (r : Njq_engine.Serve.reply) ->
                    let slow =
                      match slow_ms with
                      | Some t -> Clock.ns_to_ms r.service_ns >= t
                      | None -> false
                    in
                    Qlog.log sink
                      { Qlog.ts_ns = Clock.now_ns ();
                        query_hash = qh;
                        fingerprint = fp;
                        cache = "hit";
                        rows = Value.set_size r.value;
                        work = [];
                        work_total = 0;
                        minor_words = 0.0;
                        major_words = 0.0;
                        wall_ns = r.service_ns;
                        cpu_ns = 0;
                        queue_ns = r.queue_ns;
                        batch = r.batch;
                        max_qerror = 1.0;
                        spilled = 0;
                        slow })
                  replies))
          sink;
        if json then
          print_endline
            (Json.to_string ~pretty:true
               (Json.Obj
                  [ ("template", Json.Str (Njq_engine.Serve.text h));
                    ("fingerprint", Json.Str (Njq_engine.Serve.fingerprint h));
                    ("batching", Json.Bool (not no_batching));
                    ("clients", Json.Int clients);
                    ("requests", Json.Int n);
                    ("result_rows", Json.Int !rows);
                    ("batches", Json.Int batches);
                    ("batches_iterated", Json.Int iterated);
                    ("mean_batch", Json.Float mean_batch);
                    ("queries_per_s", Json.Float qps);
                    ("queue_p50_ns", Json.Int (H.p50 queue));
                    ("queue_p99_ns", Json.Int (H.p99 queue));
                    ("service_p50_ns", Json.Int (H.p50 service));
                    ("service_p99_ns", Json.Int (H.p99 service)) ]))
        else begin
          Fmt.pr
            "served %d invocations from %d clients (%s, window %d): %.0f \
             queries/s@."
            n clients
            (if no_batching then "one-at-a-time" else "batched")
            window qps;
          Fmt.pr
            "batches: %d (mean size %.1f, %d run per invocation); result \
             rows: %d@."
            batches mean_batch iterated !rows;
          Fmt.pr "queue wait:   p50 %.3f ms  p99 %.3f ms@."
            (Clock.ns_to_ms (H.p50 queue))
            (Clock.ns_to_ms (H.p99 queue));
          Fmt.pr "service time: p50 %.3f ms  p99 %.3f ms@."
            (Clock.ns_to_ms (H.p50 service))
            (Clock.ns_to_ms (H.p99 service))
        end)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Serve concurrent invocations of a prepared query with parameters \
             through the batching scheduler: client domains issue bursts, \
             outstanding invocations merge into one set-oriented execution \
             per window, replies route back per client")
    Term.(
      const run $ template_arg $ scale_arg $ seed_arg $ dangling_arg
      $ empty_arg $ mode_arg $ db_arg $ schema_arg $ domains_arg
      $ index_arg $ clients_arg $ requests_arg $ burst_arg
      $ window_arg $ no_batching_arg $ params_arg $ json_arg $ qlog_arg
      $ slow_ms_arg $ mem_budget_arg)

(* ---------------- plan cache ---------------- *)

let cache_query_arg =
  let doc = "Prepare this query through the plan cache before reporting \
             (repeat with --repeat to see hits)." in
  Arg.(value & opt (some string) None & info [ "q"; "query" ] ~docv:"QUERY" ~doc)

let repeat_arg =
  let doc = "Derive the query's plan this many times; the first derivation \
             is a compulsory miss, later ones hit the cache." in
  Arg.(value & opt int 1 & info [ "repeat" ] ~docv:"N" ~doc)

let capacity_arg =
  let doc = "Plan cache capacity in entries (0 disables caching)." in
  Arg.(value & opt (some int) None & info [ "capacity" ] ~docv:"N" ~doc)

let cache_stats_cmd =
  let run q scale seed dangling empty mode json repeat capacity indexes =
    or_die (fun () ->
        Option.iter (fun n -> Njq_engine.Plancache.capacity := n) capacity;
        let cat = make_catalog scale seed dangling empty in
        apply_indexes cat indexes;
        Option.iter
          (fun q ->
            for _ = 1 to max 1 repeat do
              ignore
                (prepare ~schema ~mode ~options:"cli" cat q
                   (parse_query_text q))
            done)
          q;
        let hits = Njq_engine.Plancache.hits () in
        let misses = Njq_engine.Plancache.misses () in
        let evictions = Njq_engine.Plancache.evictions () in
        let size = Njq_engine.Plancache.size () in
        if json then
          print_endline
            (Json.to_string ~pretty:true
               (Json.Obj
                  [ ("hits", Json.Int hits); ("misses", Json.Int misses);
                    ("evictions", Json.Int evictions);
                    ("size", Json.Int size);
                    ("capacity", Json.Int !Njq_engine.Plancache.capacity) ]))
        else
          Fmt.pr
            "plan cache: %d entries (capacity %d)@.hits %d  misses %d  \
             evictions %d@."
            size !Njq_engine.Plancache.capacity hits misses evictions)
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:"Report plan-cache hits, misses, evictions and occupancy; with \
             -q, first prepare that query through the cache")
    Term.(
      const run $ cache_query_arg $ scale_arg $ seed_arg $ dangling_arg
      $ empty_arg $ mode_arg $ json_arg $ repeat_arg $ capacity_arg
      $ index_arg)

let cache_cmd =
  Cmd.group
    (Cmd.info "cache"
       ~doc:"Prepared-query plan cache (LRU over compiled physical plans)")
    [ cache_stats_cmd ]

(* ---------------- binary catalog ---------------- *)

let pack_out_arg =
  let doc = "Output file for the packed NJQC catalog." in
  Arg.(required & opt (some string) None
       & info [ "o"; "out" ] ~docv:"FILE" ~doc)

let catalog_pack_cmd =
  let run scale seed dangling empty db schema_file out =
    or_die (fun () ->
        let cat = make_catalog ?db ?schema_file scale seed dangling empty in
        let tables = Catalog.table_names cat in
        let rows =
          List.fold_left
            (fun acc t -> acc + Catalog.cardinality cat t)
            0 tables
        in
        let t0 = Clock.now_ns () in
        on_file ~what:"write catalog" out (fun () ->
            Njq_engine.Rowcodec.save_catalog cat out);
        let pack_ns = Clock.elapsed_ns t0 in
        let bytes =
          In_channel.with_open_bin out (fun ic ->
              Int64.to_int (In_channel.length ic))
        in
        (* Read it straight back: proves the file round-trips and shows
           the cold-start cost the binary format buys down. *)
        let t1 = Clock.now_ns () in
        let reloaded = Njq_engine.Rowcodec.load_catalog out in
        let load_ns = Clock.elapsed_ns t1 in
        let rows' =
          List.fold_left
            (fun acc t -> acc + Catalog.cardinality reloaded t)
            0
            (Catalog.table_names reloaded)
        in
        if rows' <> rows then begin
          Fmt.epr "pack verification failed: %d row(s) in, %d back@." rows
            rows';
          exit 1
        end;
        Fmt.pr "packed %d table(s), %d row(s) into %s: %d bytes in %.3f ms@."
          (List.length tables) rows out bytes (Clock.ns_to_ms pack_ns);
        Fmt.pr "cold-start load: %.3f ms (round trip verified)@."
          (Clock.ns_to_ms load_ns))
  in
  Cmd.v
    (Cmd.info "pack"
       ~doc:"Pack a catalog (loaded with --db/--schema or generated) into \
             the NJQC binary format; the file is accepted anywhere --db \
             is, replacing the textual parse on cold start")
    Term.(
      const run $ scale_arg $ seed_arg $ dangling_arg $ empty_arg $ db_arg
      $ schema_arg $ pack_out_arg)

let catalog_cmd =
  Cmd.group
    (Cmd.info "catalog" ~doc:"Catalog utilities (NJQC binary packing)")
    [ catalog_pack_cmd ]

(* ---------------- query-log inspection ---------------- *)

let qlog_pos_arg =
  let doc =
    "Query log file (JSONL, written by $(b,njq run --qlog) / NJQ_QLOG)."
  in
  Arg.(value & pos 0 (some string) None & info [] ~docv:"QLOG" ~doc)

let limit_arg =
  let doc = "Show at most this many rows (0 = all)." in
  Arg.(value & opt int 20 & info [ "limit" ] ~docv:"N" ~doc)

let load_qlog path =
  let path =
    match path with
    | Some p -> p
    | None ->
      (match env_qlog () with
       | Some p -> p
       | None ->
         Fmt.epr "no query log: pass a file or set NJQ_QLOG@.";
         exit 1)
  in
  let events, bad =
    on_file ~what:"read query log" path (fun () -> Qlog.read_file path)
  in
  if bad > 0 then Fmt.epr "warning: %d malformed line(s) skipped@." bad;
  events

let take n xs =
  if n <= 0 then xs
  else
    List.filteri (fun i _ -> i < n) xs

let top_cmd =
  let run path limit json =
    let events = load_qlog path in
    let aggs = take limit (Qlog.aggregate events) in
    if json then
      print_endline
        (Json.to_string ~pretty:true
           (Json.Obj
              [ ("events", Json.Int (List.length events));
                ("plans", Json.List (List.map Qlog.agg_to_json aggs)) ]))
    else begin
      Fmt.pr "%-16s %6s %5s %6s %5s %10s %10s %10s %10s %6s@." "fingerprint"
        "calls" "hit%" "slow" "batch" "p50(ms)" "p99(ms)" "max(ms)" "work"
        "qerr";
      List.iter
        (fun (a : Qlog.agg) ->
          Fmt.pr "%-16s %6d %5.0f %6d %5.1f %10.3f %10.3f %10.3f %10d %6.2f@."
            a.Qlog.a_fingerprint a.Qlog.a_calls
            (100.0 *. Qlog.hit_rate a)
            a.Qlog.a_slow (Qlog.mean_batch a)
            (Clock.ns_to_ms (Njq_obs.Histogram.p50 a.Qlog.a_wall))
            (Clock.ns_to_ms (Njq_obs.Histogram.p99 a.Qlog.a_wall))
            (Clock.ns_to_ms (Njq_obs.Histogram.max_value a.Qlog.a_wall))
            a.Qlog.a_work a.Qlog.a_max_qerror)
        aggs
    end
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:"Aggregate a query log per plan fingerprint: calls, cache hit \
             rate, mean batch size, p50/p99/max latency, total work, worst \
             q-error — heaviest plans (by total wall time) first")
    Term.(const run $ qlog_pos_arg $ limit_arg $ json_arg)

let slow_only_arg =
  let doc = "Show only events that crossed the writer's slow threshold." in
  Arg.(value & flag & info [ "slow-only" ] ~doc)

let fingerprint_arg =
  let doc = "Show only events of this plan fingerprint." in
  Arg.(value & opt (some string) None
       & info [ "fingerprint" ] ~docv:"FP" ~doc)

let log_cmd =
  let run path limit slow_only fingerprint json =
    let events = load_qlog path in
    let events =
      List.filter
        (fun (e : Qlog.event) ->
          ((not slow_only) || e.Qlog.slow)
          &&
          match fingerprint with
          | None -> true
          | Some fp -> String.equal fp e.Qlog.fingerprint)
        events
    in
    (* Most recent events are the interesting ones: take the tail. *)
    let total = List.length events in
    let events =
      if limit > 0 && total > limit then
        List.filteri (fun i _ -> i >= total - limit) events
      else events
    in
    if json then
      print_endline
        (Json.to_string ~pretty:true
           (Json.List (List.map Qlog.to_json events)))
    else
      List.iter (fun e -> Fmt.pr "%a@." Qlog.pp_event e) events
  in
  Cmd.v
    (Cmd.info "log"
       ~doc:"Pretty-print query-log events (filter by slowness or plan \
             fingerprint)")
    Term.(
      const run $ qlog_pos_arg $ limit_arg $ slow_only_arg $ fingerprint_arg
      $ json_arg)

let main =
  let doc = "nested-loop to join queries in OODB — OOSQL/ADL query pipeline" in
  Cmd.group (Cmd.info "njq" ~version:"1.0.0" ~doc)
    [ parse_cmd; translate_cmd; explain_cmd; run_cmd; adl_cmd; schema_cmd;
      stats_cmd; repl_cmd; serve_cmd; cache_cmd; catalog_cmd; top_cmd;
      log_cmd ]

let () = exit (Cmd.eval main)
