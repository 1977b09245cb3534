(* Referential integrity checking — the paper's Example Query 4.

   Suppliers referencing parts that do not exist violate referential
   integrity.  The naive plan iterates every supplier's references and for
   each runs a nested loop over PART; the optimizer unnests the set-valued
   attribute with mu (option 2: the attribute is not needed in the result
   and the quantification is existential) and then applies Rule 1, yielding
   the antijoin query of the paper:

     pi_sid(mu_parts(SUPPLIER) antijoin[z = p.oid] PART)

   Run with: dune exec examples/referential_integrity.exe *)

open Njq_adl
module Metrics = Njq_obs.Metrics
module Gen = Njq_workload.Generator

let () =
  (* A database with 5% dangling references injected. *)
  let cfg = { (Gen.scaled ~seed:2024 256) with dangling_rate = 0.05 } in
  let cat = Gen.catalog cfg in
  Fmt.pr "Database: %d suppliers, %d parts, dangling rate %.2f@.@."
    (Catalog.cardinality cat "SUPPLIER")
    (Catalog.cardinality cat "PART")
    cfg.Gen.dangling_rate;

  let query =
    {| select (sid = s.oid)
       from s in SUPPLIER
       where exists z in s.parts_supplied : not exists p in PART : z = p.oid |}
  in
  Fmt.pr "OOSQL:@.%s@.@." query;
  let adl, _ = Njq_oosql.Translate.query_string Njq_workload.Queries.schema query in

  (* Nested-loop execution *)
  Metrics.reset_counters ();
  let naive = Eval.run cat adl in
  let naive_work = Metrics.get "nl_pred_eval" in

  (* Optimized execution *)
  let report = Njq_core.Strategy.rewrite cat adl in
  Fmt.pr "Rewritten ADL:@.  %a@.@." Pretty.pp report.Njq_core.Strategy.output;
  let plan = Njq_engine.Planner.plan report.Njq_core.Strategy.output in
  Fmt.pr "Plan:@.  %a@.@." Njq_engine.Plan.pp plan;
  Metrics.reset_counters ();
  let optimized = Njq_engine.Exec.run cat plan in
  let opt_snapshot = Metrics.counter_snapshot () in

  assert (Value.equal naive optimized);
  Fmt.pr "Violating suppliers: %d@.@." (Value.set_size optimized);
  Fmt.pr "Nested-loop predicate evaluations : %d@." naive_work;
  Fmt.pr "Set-oriented plan work            : %a@." Metrics.pp_counts
    opt_snapshot;
  let opt_total = List.fold_left (fun acc (_, v) -> acc + v) 0 opt_snapshot in
  Fmt.pr "Speedup in touched units          : %.1fx@."
    (float_of_int naive_work /. float_of_int (max 1 opt_total))
