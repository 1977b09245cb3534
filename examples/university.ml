(* Adopting the library on a new domain: define your own schema, load your
   own data, run nested queries through the optimizer, inspect the
   execution, and persist the database.

   Run with: dune exec examples/university.exe *)

open Njq_adl

let schema_source =
  {|
    class Course with extension COURSE attributes
      title : string,
      credits : int,
      prereqs : { Course }
    end
    class Student with extension STUDENT attributes
      name : string,
      enrolled : { Course }
    end
  |}

let () =
  (* 1. Schema and data. *)
  let schema = Njq_oosql.Parser.parse_schema schema_source in
  let cat = Njq_oosql.Schema.to_catalog schema in
  let course oid title credits prereqs =
    Value.tuple
      [ ("oid", Value.oid oid); ("title", Value.string title);
        ("credits", Value.int credits);
        ("prereqs", Value.set (List.map Value.oid prereqs)) ]
  in
  Catalog.set_rows cat "COURSE"
    [ course 1 "Databases I" 6 []; course 2 "Databases II" 6 [ 1 ];
      course 3 "Logic" 4 []; course 4 "Query Optimization" 8 [ 1; 2 ];
      course 5 "Art History" 3 [] ];
  let student oid name enrolled =
    Value.tuple
      [ ("oid", Value.oid oid); ("name", Value.string name);
        ("enrolled", Value.set (List.map Value.oid enrolled)) ]
  in
  Catalog.set_rows cat "STUDENT"
    [ student 10 "ada" [ 1; 2; 4 ]; student 11 "erwin" [ 1; 3 ];
      student 12 "edgar" [ 5 ]; student 13 "hennie" [ 1; 2; 3; 4 ] ];

  (* 2. A universally quantified nested query: students enrolled in ALL
     database-heavy courses (credits >= 6). *)
  let q =
    {| select s.name
       from s in STUDENT
       where forall c in COURSE : not (c.credits >= 6) or c.oid in s.enrolled |}
  in
  Fmt.pr "Query:@.%s@.@." q;
  let adl, _ = Njq_oosql.Translate.query_string schema q in
  let report = Njq_core.Strategy.rewrite cat adl in
  Fmt.pr "Rewritten: %a@.@." Pretty.pp report.Njq_core.Strategy.output;
  let plan = Njq_engine.Planner.plan report.Njq_core.Strategy.output in
  let result, profile = Njq_engine.Profile.run cat plan in
  Fmt.pr "Result: %a@.@." Value.pp result;
  Fmt.pr "Execution profile:@.%a@." Njq_engine.Profile.pp profile;
  assert (Value.equal result (Eval.run cat adl));

  (* 3. Grouping: per student, the enrolled course titles — a nestjoin. *)
  let report_q =
    {| select (student = s.name,
               courses = select c.title from c in COURSE where c.oid in s.enrolled)
       from s in STUDENT |}
  in
  let adl2, _ = Njq_oosql.Translate.query_string schema report_q in
  let out2 = Njq_core.Strategy.optimize cat adl2 in
  let v2 = Njq_engine.Planner.run cat out2 in
  Fmt.pr "Per-student report (%d rows):@." (Value.set_size v2);
  List.iter (fun row -> Fmt.pr "  %s@." (Serialize.value_to_json row)) (Value.as_set v2);
  assert (Value.equal v2 (Eval.run cat adl2));

  (* 4. Referential integrity over prerequisites (Example Query 4's shape
     on this schema). *)
  let ri =
    {| select (cid = c.oid)
       from c in COURSE
       where exists z in c.prereqs : not exists d in COURSE : z = d.oid |}
  in
  let adl3, _ = Njq_oosql.Translate.query_string schema ri in
  let v3 = Njq_engine.Planner.run cat (Njq_core.Strategy.optimize cat adl3) in
  Fmt.pr "@.Dangling prerequisites: %a@." Value.pp v3;

  (* 5. Persist and reload; results survive the round trip. *)
  let path = Filename.temp_file "university" ".db" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Serialize.save_catalog_file cat path;
      let cat' = Serialize.load_catalog_file path in
      let v2' = Njq_engine.Planner.run cat' out2 in
      assert (Value.equal v2 v2');
      Fmt.pr "@.Saved to %s and reloaded: identical results.@." path)
