(* Auditing deliveries: path expressions, quantifiers over set-valued
   attributes, and pointer-based materialization (Section 6.2).

   Three queries over the DELIVERY extent:
   1. deliveries by a given supplier on a given date (nesting in the
      from-clause, Example Query 2) — path expression through an oid
      reference, executed by assembly-style dereferencing;
   2. deliveries including red parts (Example Query 3.2) — an existential
      over the set-valued 'supply' attribute, kept nested per the paper's
      goal (set-valued attributes are stored clustered);
   3. materializing supplier objects into delivery rows: value-based join
      vs the assembly operator, comparing work counters.

   Run with: dune exec examples/delivery_audit.exe *)

open Njq_adl
module Metrics = Njq_obs.Metrics
module Gen = Njq_workload.Generator

let schema = Njq_workload.Queries.schema

let () =
  let cfg = { (Gen.scaled ~seed:99 256) with dangling_rate = 0.0 } in
  let cat = Gen.catalog cfg in
  Fmt.pr "Database: %d deliveries, %d suppliers@.@."
    (Catalog.cardinality cat "DELIVERY")
    (Catalog.cardinality cat "SUPPLIER");

  (* 1. From-clause nesting + path expression through a reference. *)
  let q1 =
    {| select d
       from d in (select e from e in DELIVERY where e.supplier.sname = "s1")
       where d.date = 940105 |}
  in
  let adl1, _ = Njq_oosql.Translate.query_string schema q1 in
  let out1 = Njq_core.Strategy.optimize cat adl1 in
  Fmt.pr "Q1 (from-clause nesting) rewrites to a single selection:@.  %a@."
    Pretty.pp out1;
  Fmt.pr "Q1 rows: %d@.@."
    (Value.set_size (Njq_engine.Exec.run cat (Njq_engine.Planner.plan out1)));

  (* 2. Existential over a set-valued attribute: left nested (the paper's
     goal is only to remove BASE TABLES from iterator parameters). *)
  let q2 =
    {| select d
       from d in DELIVERY
       where exists x in (select s from s in d.supply where s.part.color = "red") |}
  in
  let adl2, _ = Njq_oosql.Translate.query_string schema q2 in
  let out2 = Njq_core.Strategy.optimize cat adl2 in
  Fmt.pr "Q2 (exists over supply) stays a selection over DELIVERY:@.  %a@."
    Pretty.pp out2;
  Fmt.pr "Q2 rows: %d@.@."
    (Value.set_size (Njq_engine.Exec.run cat (Njq_engine.Planner.plan out2)));

  (* 3. Materializing the supplier reference: assembly vs value join. *)
  let assembly_plan =
    Njq_engine.Plan.Assembly
      { cls = "SUPPLIER"; ref_attr = "supplier"; into = "supplier";
        input = Njq_engine.Plan.Scan "DELIVERY" }
  in
  Metrics.reset_counters ();
  let via_assembly = Njq_engine.Exec.run cat assembly_plan in
  let assembly_work = Metrics.counter_snapshot () in

  (* The equivalent value-based formulation: a nestjoin on oid equality and
     a repack (each delivery has exactly one supplier). *)
  let open Dsl in
  let value_join =
    map_ "z"
      (nestjoin ~x:"d" ~y:"s" ~attr:"sset"
         (eq (var "d" $. "supplier") (var "s" $. "oid"))
         (table "DELIVERY") (table "SUPPLIER"))
      (except (proj (var "z") [ "oid"; "supply"; "date"; "supplier" ])
         [ ("supplier", min_ (map_ "w" (var "z" $. "sset") (var "w" $. "oid")) ) ])
  in
  ignore value_join;
  let join_plan =
    Njq_engine.Planner.plan
      (map_ "d" (table "DELIVERY")
         (except (var "d")
            [ ("supplier", deref "SUPPLIER" (var "d" $. "supplier")) ]))
  in
  Metrics.reset_counters ();
  let via_join = Njq_engine.Exec.run cat join_plan in
  let join_work = Metrics.counter_snapshot () in
  Fmt.pr "Q3 materialize supplier into deliveries:@.";
  Fmt.pr "  assembly operator : %d rows, work %a@." (Value.set_size via_assembly)
    Metrics.pp_counts assembly_work;
  Fmt.pr "  per-tuple deref   : %d rows, work %a@." (Value.set_size via_join)
    Metrics.pp_counts join_work;
  (* Results agree modulo the attribute holding the object. *)
  assert (Value.set_size via_assembly = Value.set_size via_join)
