(* Quickstart: define a schema in OOSQL, load data, run a nested query
   through the full pipeline, and look at what the optimizer did.

   Run with: dune exec examples/quickstart.exe *)

open Njq_adl
module Metrics = Njq_obs.Metrics

let () =
  (* 1. A schema, in OOSQL.  Each class extension becomes a base table with
     an implicit oid attribute; class references become typed pointers. *)
  let schema =
    Njq_oosql.Parser.parse_schema
      {|
        class Author with extension AUTHOR attributes
          name : string
        end
        class Book with extension BOOK attributes
          title : string,
          year : int,
          authors : { Author }
        end
      |}
  in
  let cat = Njq_oosql.Schema.to_catalog schema in

  (* 2. Some data.  Values are canonical complex objects: tuples and sets. *)
  let author oid name =
    Value.tuple [ ("oid", Value.oid oid); ("name", Value.string name) ]
  in
  Catalog.set_rows cat "AUTHOR"
    [ author 1 "Steenhagen"; author 2 "Apers"; author 3 "Blanken"; author 4 "de By" ];
  let book oid title year authors =
    Value.tuple
      [ ("oid", Value.oid oid);
        ("title", Value.string title);
        ("year", Value.int year);
        ("authors", Value.set (List.map Value.oid authors)) ]
  in
  Catalog.set_rows cat "BOOK"
    [ book 10 "Nested-Loop to Join Queries" 1994 [ 1; 2; 3; 4 ];
      book 11 "Optimization of Nested Queries" 1994 [ 1; 2; 3 ];
      book 12 "An Unrelated Novel" 1994 [] ];

  (* 3. A nested OOSQL query: books having at least one author named
     "de By" — nesting over a base table inside the where-clause. *)
  let query =
    {| select b.title
       from b in BOOK
       where exists z in b.authors : exists a in AUTHOR : z = a.oid and a.name = "de By" |}
  in
  Fmt.pr "OOSQL query:@.%s@.@." query;

  (* 4. Translate to the ADL algebra. *)
  let adl, ty = Njq_oosql.Translate.query_string schema query in
  Fmt.pr "ADL translation (type %a):@.  %a@.@." Vtype.pp ty Pretty.pp adl;

  (* 5. Optimize: the nested existential over the base table AUTHOR becomes
     a semijoin (Rule 1, after quantifier exchange). *)
  let report = Njq_core.Strategy.rewrite cat adl in
  Fmt.pr "Derivation:@.%a@.@." Njq_core.Strategy.pp_report report;

  (* 6. Plan and execute, with work counters. *)
  let plan = Njq_engine.Planner.plan report.Njq_core.Strategy.output in
  Fmt.pr "Physical plan:@.  %a@.@." Njq_engine.Plan.pp plan;
  Metrics.reset_counters ();
  let result = Njq_engine.Exec.run cat plan in
  Fmt.pr "Result: %a@." Value.pp result;
  Fmt.pr "Work:   %a@.@." Metrics.pp_counts (Metrics.counter_snapshot ());

  (* 7. Sanity: the optimizer must agree with naive nested-loop semantics. *)
  let reference = Eval.run cat adl in
  assert (Value.equal result reference);
  Fmt.pr "Matches the reference nested-loop evaluation: true@."
