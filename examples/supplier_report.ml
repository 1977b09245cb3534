(* Building complex-object reports with the nestjoin — the paper's Example
   Queries 1 and 6.

   The query nests in the select-clause: for each supplier, the set of part
   objects it supplies.  This cannot be rewritten into a flat relational
   join (the result is a complex object, and dangling suppliers must keep
   their empty set), so the strategy uses the nestjoin:

     alpha[z : (sname = z.sname, parts = z.g)](SUPPLIER nestjoin[...] PART)

   The example also shows the three execution strategies for grouping
   queries side by side: nested loops, nestjoin (hash), and the flat
   join+nest (which silently loses suppliers — the Complex Object bug).

   Run with: dune exec examples/supplier_report.exe *)

open Njq_adl
module Metrics = Njq_obs.Metrics
module Gen = Njq_workload.Generator
module Strategy = Njq_core.Strategy

let () =
  let cfg = { (Gen.scaled ~seed:7 128) with dangling_rate = 0.0; empty_rate = 0.2 } in
  let cat = Gen.catalog cfg in

  let query =
    {| select (sname = s.sname,
               parts_suppl = select p.pname from p in PART
                             where p.oid in s.parts_supplied)
       from s in SUPPLIER |}
  in
  Fmt.pr "OOSQL:@.%s@.@." query;
  let adl, ty = Njq_oosql.Translate.query_string Njq_workload.Queries.schema query in
  Fmt.pr "Result type: %a@.@." Vtype.pp ty;

  let report = Strategy.rewrite cat adl in
  Fmt.pr "Rewritten (nestjoin):@.  %a@.@." Pretty.pp report.Strategy.output;

  Metrics.reset_counters ();
  let result =
    Njq_engine.Exec.run cat (Njq_engine.Planner.plan report.Strategy.output)
  in
  Fmt.pr "Computed %d supplier rows; work: %a@.@." (Value.set_size result)
    Metrics.pp_counts (Metrics.counter_snapshot ());

  (* Print the first few report rows. *)
  let rows = Value.as_set result in
  List.iteri
    (fun i row -> if i < 4 then Fmt.pr "  %a@." Value.pp row)
    rows;
  Fmt.pr "  ...@.@.";

  (* The Complex Object bug, live: group with a flat join instead.  The
     predicate between blocks here is trivially true (every supplier row is
     wanted), so P(x, {}) = true: the paper's Table 3 analysis says the
     flat join MUST lose the suppliers with no parts, and it does. *)
  let total = Catalog.cardinality cat "SUPPLIER" in
  let empties =
    List.length
      (List.filter
         (fun s -> Value.as_set (Value.field s "parts_supplied") = [])
         (Catalog.rows cat "SUPPLIER"))
  in
  let flat_join_rows =
    let open Dsl in
    Value.set_size
      (Eval.run cat
         (nest
            ~attrs:[ "oid_p"; "pname" ]
            ~into:"parts_suppl"
            (join ~x:"s" ~y:"p"
               (mem (var "p" $. "oid_p") (var "s" $. "parts_supplied"))
               (table "SUPPLIER")
               (map_ "p" (table "PART")
                  (tuple
                     [ ("oid_p", var "p" $. "oid"); ("pname", var "p" $. "pname") ])))))
  in
  Fmt.pr "Suppliers total               : %d@." total;
  Fmt.pr "  with empty parts_supplied   : %d@." empties;
  Fmt.pr "Nestjoin report rows          : %d (all suppliers kept)@."
    (Value.set_size result);
  Fmt.pr "Flat join+nest report rows    : %d (Complex Object bug: %d lost)@."
    flat_join_rows (total - flat_join_rows);
  assert (Value.set_size result = total);
  assert (flat_join_rows = total - empties)
