(* Auditing deliveries: path expressions, quantifiers over set-valued
   attributes, and pointer-based materialization (Section 6.2).

   Three queries over the DELIVERY extent:
   1. deliveries by a given supplier on a given date (nesting in the
      from-clause, Example Query 2) — path expression through an oid
      reference, executed by assembly-style dereferencing;
   2. deliveries including red parts (Example Query 3.2) — an existential
      over the set-valued 'supply' attribute, kept nested per the paper's
      goal (set-valued attributes are stored clustered);
   3. materializing supplier objects into delivery rows: the pointer-based
      materialize (a map over a compiled deref, one oid-index lookup per
      delivery) vs a value-based hash join, comparing work counters.

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

  (* 3. Materializing the supplier reference: pointers vs values. *)
  let open Dsl in
  let run_counted q =
    let plan = Njq_engine.Planner.plan ~cat q in
    Metrics.reset_counters ();
    let v = Njq_engine.Exec.run cat plan in
    (v, Metrics.counter_snapshot ())
  in
  let via_pointer, pointer_work =
    run_counted
      (map_ "d" (table "DELIVERY")
         (except (var "d") [ ("supplier", deref "SUPPLIER" (var "d" $. "supplier")) ]))
  in
  (* The value-based formulation: hash SUPPLIER on its oid, probe it with
     each delivery's reference, and put the matched object in its place. *)
  let via_join, join_work =
    run_counted
      (map_ "z"
         (join ~x:"d" ~y:"s"
            (eq (var "d" $. "supplier") (var "s" $. "soid"))
            (table "DELIVERY")
            (map_ "s" (table "SUPPLIER")
               (tuple [ ("soid", var "s" $. "oid"); ("sobj", var "s") ])))
         (except
            (proj (var "z") [ "oid"; "supply"; "date"; "supplier" ])
            [ ("supplier", var "z" $. "sobj") ]))
  in
  Fmt.pr "Q3 materialize supplier into deliveries:@.";
  Fmt.pr "  pointer (deref map) : %d rows, work %a@." (Value.set_size via_pointer)
    Metrics.pp_counts pointer_work;
  Fmt.pr "  value (hash join)   : %d rows, work %a@." (Value.set_size via_join)
    Metrics.pp_counts join_work;
  assert (Value.equal via_pointer via_join)
