(* Tests for the unnesting rewrites: Rule 1, Rule 2, quantifier exchange
   (Rewriting Examples 1-3), attribute unnesting (Example Query 4), the
   grouping transform and its Complex Object bug (Figure 2), the nestjoin
   rewrite (Section 6.1), and the full strategy, with semantic soundness
   checked against the reference evaluator on randomized databases. *)

open Njq_adl
module Metrics = Njq_obs.Metrics
open Dsl
module Strategy = Njq_core.Strategy
module Normalize = Njq_core.Normalize
module Grouping = Njq_core.Grouping

let strategy ?options cat e = (Strategy.rewrite ?options cat e).Strategy.output

let _check_equiv name cat e =
  let e' = strategy cat e in
  Alcotest.check Util.value name (Eval.run cat e) (Eval.run cat e')

(* Shape inspectors *)
let rec contains p e = p e || Expr.fold_children (fun acc c -> acc || contains p c) false e

let has_join_kind k e =
  contains (function Expr.Join { kind; _ } -> kind = k | _ -> false) e

let has_nestjoin e = contains (function Expr.Nestjoin _ -> true | _ -> false) e

(* A selection or map whose parameter expression still iterates a base
   table: the unnesting goal is to eliminate these. *)
let has_nested_base_table e =
  contains
    (function
      | Expr.Select { pred = param; _ }
      | Expr.Map { body = param; _ }
      | Expr.Join { pred = param; _ } -> Analysis.uses_base_table param
      | _ -> false)
    e

(* ---------------- Rewriting Example 1: set membership ---------------- *)

let test_rewriting_example1 () =
  let cat = Util.small_catalog () in
  (* sigma[x : x.c 'in' sigma[y : q](Y)](X) — membership of an atomic
     attribute in a subquery: here, the supplier's oid among red parts'
     oids would be ill-typed, so we use a dedicated pair of tables. *)
  let cat2 =
    Util.xy_catalog
      ( [ Value.tuple [ ("a", Value.int 1); ("c", Value.set [ Value.int 7 ]) ];
          Value.tuple [ ("a", Value.int 3); ("c", Value.set []) ] ],
        [ Value.tuple [ ("d", Value.int 1); ("e", Value.int 7) ];
          Value.tuple [ ("d", Value.int 2); ("e", Value.int 9) ] ] )
  in
  ignore cat;
  let q =
    select "x" (table "X")
      (mem (var "x" $. "a")
         (map_ "y" (select "y" (table "Y") (gt (var "y" $. "e") (int 0)))
            (var "y" $. "d")))
  in
  let out = strategy cat2 q in
  Alcotest.(check bool) "becomes a semijoin" true (has_join_kind Expr.Semi out);
  Alcotest.(check bool) "no nested base table" false (has_nested_base_table out);
  Alcotest.check Util.value "equivalent" (Eval.run cat2 q) (Eval.run cat2 out)

(* ---------------- Rewriting Example 2: set inclusion ----------------- *)

let test_rewriting_example2 () =
  (* sigma[x : sigma[y : q](Y) 'subseteq' x.c](X) — the subquery on the
     LEFT of the inclusion expands to a universal quantifier over the base
     table and unnests to an antijoin. *)
  let cat =
    Util.xy_catalog
      ( [ Value.tuple [ ("a", Value.int 1); ("c", Value.set [ Value.int 1; Value.int 2 ]) ];
          Value.tuple [ ("a", Value.int 2); ("c", Value.set [ Value.int 1 ]) ] ],
        [ Value.tuple [ ("d", Value.int 1); ("e", Value.int 1) ];
          Value.tuple [ ("d", Value.int 2); ("e", Value.int 2) ] ] )
  in
  let sub =
    map_ "y" (select "y" (table "Y") (gt (var "y" $. "d") (int 0))) (var "y" $. "e")
  in
  let q = select "x" (table "X") (subseteq sub (var "x" $. "c")) in
  let out = strategy cat q in
  Alcotest.(check bool) "becomes an antijoin" true (has_join_kind Expr.Anti out);
  Alcotest.check Util.value "equivalent" (Eval.run cat q) (Eval.run cat out)

(* ------------- Rewriting Example 3: exchanging quantifiers ----------- *)

let test_rewriting_example3 () =
  (* forall z 'in' x.c . z 'supseteq' Y' — a set-of-sets attribute compared
     against a base-table subquery; exchange moves the base-table
     quantifier leftmost and an antijoin results. *)
  let sos v = Value.set (List.map (fun l -> Value.set (List.map Value.int l)) v) in
  let cat = Catalog.create () in
  Catalog.add_table cat ~name:"X"
    ~row_type:(Vtype.tuple [ ("a", Vtype.TInt); ("c", Vtype.TSet (Vtype.TSet Vtype.TInt)) ])
    [ Value.tuple [ ("a", Value.int 1); ("c", sos [ [ 1; 2 ]; [ 1; 2; 3 ] ]) ];
      Value.tuple [ ("a", Value.int 2); ("c", sos [ [ 1 ] ]) ];
      Value.tuple [ ("a", Value.int 3); ("c", sos [] ) ] ];
  Catalog.add_table cat ~name:"Y"
    ~row_type:(Vtype.tuple [ ("d", Vtype.TInt); ("e", Vtype.TInt) ])
    [ Value.tuple [ ("d", Value.int 1); ("e", Value.int 1) ];
      Value.tuple [ ("d", Value.int 2); ("e", Value.int 2) ] ];
  let sub =
    map_ "y" (select "y" (table "Y") (lt (var "y" $. "d") (int 2))) (var "y" $. "e")
  in
  let q = select "x" (table "X") (forall "z" (var "x" $. "c") (supseteq (var "z") sub)) in
  let out = strategy cat q in
  Alcotest.(check bool) "becomes an antijoin" true (has_join_kind Expr.Anti out);
  Alcotest.(check bool) "no nested base table" false (has_nested_base_table out);
  Alcotest.check Util.value "equivalent" (Eval.run cat q) (Eval.run cat out)

(* ---------------- Rule 2: nesting in the map operator ---------------- *)

let test_rule2 () =
  let cat =
    Util.xy_catalog
      ( [ Value.tuple [ ("a", Value.int 1); ("c", Value.set []) ];
          Value.tuple [ ("a", Value.int 2); ("c", Value.set []) ] ],
        [ Value.tuple [ ("d", Value.int 1); ("e", Value.int 5) ];
          Value.tuple [ ("d", Value.int 2); ("e", Value.int 6) ] ] )
  in
  let q =
    flatten
      (map_ "x" (table "X")
         (map_ "y"
            (select "y" (table "Y") (eq (var "x" $. "a") (var "y" $. "d")))
            (var "x" ^^ var "y")))
  in
  let out = strategy cat q in
  Alcotest.(check bool) "becomes a regular join" true (has_join_kind Expr.Inner out);
  Alcotest.check Util.value "equivalent" (Eval.run cat q) (Eval.run cat out)

(* Generalized Rule 2: arbitrary map bodies over a correlated inner range
   become a map over a join (multi-binding from-clauses). *)
let test_rule2_general () =
  let cat =
    Util.xy_catalog
      ( [ Value.tuple [ ("a", Value.int 1); ("c", Value.set []) ];
          Value.tuple [ ("a", Value.int 2); ("c", Value.set [ Value.int 9 ]) ] ],
        [ Value.tuple [ ("d", Value.int 1); ("e", Value.int 5) ];
          Value.tuple [ ("d", Value.int 2); ("e", Value.int 6) ] ] )
  in
  let q =
    flatten
      (map_ "x" (table "X")
         (map_ "y"
            (select "y" (table "Y") (eq (var "x" $. "a") (var "y" $. "d")))
            (tuple [ ("k", var "x" $. "a"); ("v", var "y" $. "e") ])))
  in
  let out = strategy cat q in
  Alcotest.(check bool) "join introduced" true (has_join_kind Expr.Inner out);
  Alcotest.(check bool) "no nested base table" false (has_nested_base_table out);
  Alcotest.check Util.value "equivalent" (Eval.run cat q) (Eval.run cat out)

(* Overlapping schemas: generalized Rule 2 inserts the renaming operator
   rho on the right operand instead of giving up. *)
let test_rule2_rename () =
  let cat =
    Njq_workload.Generator.catalog
      { Njq_workload.Generator.default_config with dangling_rate = 0.0 }
  in
  let q, _ =
    Njq_oosql.Translate.query_string Njq_workload.Queries.schema
      {| select (d = d.oid, s = s.sname)
         from d in DELIVERY, s in SUPPLIER
         where d.supplier = s.oid |}
  in
  let out = strategy cat q in
  Alcotest.(check bool) "join with rename" true
    (has_join_kind Expr.Inner out
     && contains (function Expr.Rename _ -> true | _ -> false) out);
  Alcotest.check Util.value "equivalent" (Eval.run cat q)
    (Njq_engine.Planner.run cat out)

(* Disjunctive predicates with base-table subqueries split into unions so
   each branch unnests. *)
let test_disjunction_split () =
  let cat = Util.small_catalog () in
  let wants color =
    exists "p" (table "PART")
      (mem (var "p" $. "oid") (var "s" $. "parts_supplied")
       &&& eq (var "p" $. "color") (str color))
  in
  let q = select "s" (table "SUPPLIER") (wants "red" ||| wants "blue") in
  let out = strategy cat q in
  Alcotest.(check bool) "union of semijoins" true
    (contains (function Expr.Union _ -> true | _ -> false) out
     && has_join_kind Expr.Semi out);
  Alcotest.(check bool) "no nested base table" false (has_nested_base_table out);
  Alcotest.check Util.value "equivalent" (Eval.run cat q) (Eval.run cat out)

(* ---------------- Example Query 4: attribute unnesting ---------------- *)

let test_attr_unnest_query4 () =
  let cat = Util.small_catalog () in
  let q =
    project [ "oid" ]
      (select "s" (table "SUPPLIER")
         (exists "z" (var "s" $. "parts_supplied")
            (not_ (exists "p" (table "PART") (eq (var "z") (var "p" $. "oid"))))))
  in
  let out = strategy cat q in
  Alcotest.(check bool) "uses mu" true
    (contains (function Expr.Unnest _ -> true | _ -> false) out);
  Alcotest.(check bool) "uses antijoin" true (has_join_kind Expr.Anti out);
  (* The only violator is s2 (dangling oid 99). *)
  Alcotest.check Util.value "finds s2"
    (Value.set [ Value.tuple [ ("oid", Value.oid 12) ] ])
    (Eval.run cat out);
  Alcotest.check Util.value "equivalent" (Eval.run cat q) (Eval.run cat out)

(* The option is NOT taken when the projection still needs the attribute. *)
let test_attr_unnest_guard () =
  let cat = Util.small_catalog () in
  let q =
    project [ "oid"; "parts_supplied" ]
      (select "s" (table "SUPPLIER")
         (exists "z" (var "s" $. "parts_supplied")
            (not_ (exists "p" (table "PART") (eq (var "z") (var "p" $. "oid"))))))
  in
  let out = strategy cat q in
  Alcotest.(check bool) "no unnest introduced" false
    (contains (function Expr.Unnest _ -> true | _ -> false) out);
  Alcotest.check Util.value "equivalent anyway" (Eval.run cat q) (Eval.run cat out)

(* ---------------- Figure 2: the Complex Object bug ---------------- *)

let fig2_expected_correct =
  Value.set
    [ Value.tuple [ ("a", Value.int 1); ("c", Value.set [ Value.int 1; Value.int 2 ]) ];
      Value.tuple [ ("a", Value.int 2); ("c", Value.set []) ] ]

let test_figure2_bug () =
  let cat = Njq_workload.Queries.fig2_catalog () in
  let q = Njq_workload.Queries.fig2_query in
  Alcotest.check Util.value "nested-loop answer" fig2_expected_correct (Eval.run cat q);
  (* The unguarded Ganski-Wong transform loses the dangling tuple. *)
  let buggy = Grouping.rewrite_unsafe cat q in
  Alcotest.check Util.value "grouping join drops (a=2,c={})"
    (Value.set
       [ Value.tuple [ ("a", Value.int 1); ("c", Value.set [ Value.int 1; Value.int 2 ]) ] ])
    (Eval.run cat buggy);
  (* The outer-join repair and the nestjoin strategy are both correct. *)
  let repaired = Grouping.rewrite_outerjoin cat q in
  Alcotest.check Util.value "outer join repairs" fig2_expected_correct
    (Eval.run cat repaired);
  let out = strategy cat q in
  Alcotest.(check bool) "strategy uses the nestjoin" true (has_nestjoin out);
  Alcotest.check Util.value "nestjoin correct" fig2_expected_correct (Eval.run cat out)

(* The guarded grouping applies the flat join exactly when P(x,{}) = false. *)
let test_guarded_grouping () =
  let cat = Njq_workload.Queries.fig2_catalog () in
  (* P(x, Y') = x.c 'subset' Y' reduces to false on the empty set (Table 3
     row 1): the flat join + nest transform is safe, and the
     Flat_join_when_safe mode uses it instead of the nestjoin. *)
  let sub_ye =
    map_ "y" (select "y" (table "Y") (eq (var "x" $. "a") (var "y" $. "d")))
      (var "y" $. "e")
  in
  let safe_q = select "x" (table "X") (subset (var "x" $. "c") sub_ye) in
  let opts =
    { Strategy.default_options with
      Strategy.grouping_mode = Strategy.Flat_join_when_safe }
  in
  let out = strategy ~options:opts cat safe_q in
  Alcotest.(check bool) "guard admits the flat join" true
    (has_join_kind Expr.Inner out
     && contains (function Expr.Nest _ -> true | _ -> false) out
     && not (has_nestjoin out));
  Alcotest.check Util.value "flat-join grouping equivalent when safe"
    (Eval.run cat safe_q) (Eval.run cat out);
  (* For x.c 'subseteq' Y' the guard refuses and the nestjoin is used. *)
  let unsafe_q = Njq_workload.Queries.fig2_query in
  let out2 = strategy ~options:opts cat unsafe_q in
  Alcotest.(check bool) "guard routes to nestjoin" true (has_nestjoin out2);
  Alcotest.check Util.value "correct" fig2_expected_correct (Eval.run cat out2)

(* Outer-join mode end to end. *)
let test_outerjoin_mode () =
  let cat = Njq_workload.Queries.fig2_catalog () in
  let opts =
    { Strategy.default_options with Strategy.grouping_mode = Strategy.Outerjoin }
  in
  let out = strategy ~options:opts cat Njq_workload.Queries.fig2_query in
  Alcotest.(check bool) "uses outer join" true
    (contains
       (function Expr.Join { kind = Expr.LeftOuter _; _ } -> true | _ -> false)
       out);
  Alcotest.check Util.value "correct" fig2_expected_correct (Eval.run cat out)

(* ---------------- Nestjoin rewrite for map nesting (Query 6) --------- *)

let test_nestjoin_map () =
  let cat = Util.small_catalog () in
  let q =
    map_ "s" (table "SUPPLIER")
      (tuple
         [ ("sname", var "s" $. "sname");
           ( "ps",
             select "p" (table "PART")
               (mem (var "p" $. "oid") (var "s" $. "parts_supplied")) ) ])
  in
  let out = strategy cat q in
  Alcotest.(check bool) "uses the nestjoin" true (has_nestjoin out);
  Alcotest.(check bool) "no nested base table" false (has_nested_base_table out);
  Alcotest.check Util.value "equivalent" (Eval.run cat q) (Eval.run cat out)

(* ---------------- Strategy on the paper's OOSQL corpus --------------- *)

let test_paper_corpus () =
  let clean = { Njq_workload.Generator.default_config with dangling_rate = 0.0 } in
  let dirty = Njq_workload.Generator.default_config in
  List.iter
    (fun (q : Njq_workload.Queries.query) ->
      let cfg = if q.needs_integrity then clean else dirty in
      let cat = Njq_workload.Generator.catalog cfg in
      let adl = Njq_workload.Queries.to_adl q in
      let out = strategy cat adl in
      Alcotest.check Util.value (q.id ^ " equivalent") (Eval.run cat adl)
        (Eval.run cat out))
    Njq_workload.Queries.all

(* Shape expectations per query. *)
let test_paper_corpus_shapes () =
  let cat = Njq_workload.Generator.catalog Njq_workload.Generator.default_config in
  let shape id =
    strategy cat (Njq_workload.Queries.to_adl (Njq_workload.Queries.find id))
  in
  Alcotest.(check bool) "EQ4 has antijoin" true (has_join_kind Expr.Anti (shape "EQ4"));
  Alcotest.(check bool) "EQ4 has unnest" true
    (contains (function Expr.Unnest _ -> true | _ -> false) (shape "EQ4"));
  Alcotest.(check bool) "EQ5 has semijoin" true (has_join_kind Expr.Semi (shape "EQ5"));
  Alcotest.(check bool) "EQ6 has nestjoin" true (has_nestjoin (shape "EQ6"));
  Alcotest.(check bool) "EQ3.1 has antijoin" true
    (has_join_kind Expr.Anti (shape "EQ3.1"))

(* ---------------- Randomized soundness ---------------- *)

(* A family of nested queries covering every rewrite path, evaluated on
   random X/Y tables: the strategy must preserve semantics for all of them,
   under every grouping mode. *)
let query_family =
  let sub_ye =
    map_ "y" (select "y" (table "Y") (eq (var "x" $. "a") (var "y" $. "d")))
      (var "y" $. "e")
  in
  [ ("semijoin", select "x" (table "X") (exists "y" (table "Y") (eq (var "x" $. "a") (var "y" $. "d"))));
    ("antijoin", select "x" (table "X") (not_ (exists "y" (table "Y") (eq (var "x" $. "a") (var "y" $. "d")))));
    ("exchange", select "x" (table "X")
       (exists "z" (var "x" $. "c") (exists "y" (table "Y") (eq (var "z") (var "y" $. "e")))));
    ("subseteq-grouping", select "x" (table "X") (subseteq (var "x" $. "c") sub_ye));
    ("seteq-grouping", select "x" (table "X") (set_eq (var "x" $. "c") sub_ye));
    ("supset-grouping", select "x" (table "X") (supset (var "x" $. "c") sub_ye));
    ("supseteq-rule1", select "x" (table "X") (supseteq (var "x" $. "c") sub_ye));
    ("count-compare", select "x" (table "X") (le (count sub_ye) (count (var "x" $. "c"))));
    ("nestjoin-map", map_ "x" (table "X")
       (tuple [ ("a", var "x" $. "a"); ("matches", sub_ye) ]));
    ("emptiness", select "x" (table "X") (set_eq sub_ye empty));
    ("rule2", flatten
       (map_ "x" (table "X")
          (map_ "y" (select "y" (table "Y") (eq (var "x" $. "a") (var "y" $. "d")))
             (var "x" ^^ var "y"))))
  ]

let soundness_prop mode =
  Util.qcheck ~count:120
    (Printf.sprintf "strategy soundness (%s)"
       (match mode with
        | Strategy.Nestjoin_always -> "nestjoin"
        | Strategy.Flat_join_when_safe -> "flat-join-when-safe"
        | Strategy.Outerjoin -> "outerjoin"))
    Util.arbitrary_xy
    (fun tables ->
      let cat = Util.xy_catalog tables in
      let options = { Strategy.default_options with Strategy.grouping_mode = mode } in
      List.for_all
        (fun (_, q) ->
          let out = strategy ~options cat q in
          Value.equal (Eval.run cat q) (Eval.run cat out))
        query_family)

(* Rewritten queries executed set-oriented (hash joins in the engine) do
   less work than the nested-loop original — the paper's whole point.  Note
   that the comparison is nested-loop evaluation vs engine execution: the
   rewrite by itself does not reduce nested-loop work (an antijoin evaluated
   by nested loops loses the early exit of the 'exists'), it enables the
   set-oriented algorithms. *)
let test_work_reduction () =
  let cat =
    Njq_workload.Generator.catalog (Njq_workload.Generator.scaled ~seed:7 64)
  in
  List.iter
    (fun id ->
      let adl = Njq_workload.Queries.to_adl (Njq_workload.Queries.find id) in
      let out = strategy cat adl in
      let w_nested =
        Metrics.reset_counters ();
        ignore (Eval.run cat adl);
        Metrics.get "nl_pred_eval"
      in
      let w_engine =
        Metrics.reset_counters ();
        ignore (Njq_engine.Exec.run cat (Njq_engine.Planner.plan out));
        Metrics.get "nl_pred_eval" + Metrics.get "nl_pair"
        + Metrics.get "hash_probe" + Metrics.get "hash_build"
        + Metrics.get "filter_eval"
      in
      if w_engine >= w_nested then
        Alcotest.failf "%s: set-oriented plan does more work (%d >= %d)" id
          w_engine w_nested)
    [ "EQ4"; "EQ5"; "EQ6" ]

(* Deep soundness: fully random nested predicates over the XY schema,
   rewritten under every grouping mode and with the division option, must
   preserve nested-loop semantics both under the reference evaluator and
   through the physical engine. *)
let prop_random_predicates =
  Util.qcheck ~count:400 "random nested predicates are rewritten soundly"
    Util.arbitrary_xy_pred_and_tables
    (fun (pred, tables) ->
      let cat = Util.xy_catalog tables in
      let q = select "x" (table "X") pred in
      let expected = Eval.run cat q in
      List.for_all
        (fun options ->
          let out = strategy ~options cat q in
          Value.equal expected (Eval.run cat out)
          && Value.equal expected (Njq_engine.Planner.run cat out))
        [ Strategy.default_options;
          { Strategy.default_options with Strategy.grouping_mode = Strategy.Flat_join_when_safe };
          { Strategy.default_options with Strategy.grouping_mode = Strategy.Outerjoin };
          { Strategy.default_options with Strategy.enable_division = true } ])

(* Rewrites preserve types as well as values: the strategy's output infers
   to a type compatible with the input's. *)
let prop_type_preservation =
  Util.qcheck ~count:200 "rewrites preserve types"
    Util.arbitrary_xy_pred_and_tables
    (fun (pred, tables) ->
      let cat = Util.xy_catalog tables in
      let q = select "x" (table "X") pred in
      match Typecheck.infer cat [] q with
      | exception Vtype.Type_error _ -> true
      | t ->
        (match Typecheck.infer cat [] (strategy cat q) with
         | t' -> Vtype.compat t t'
         | exception Vtype.Type_error _ -> false))

let () =
  Alcotest.run "rewrite"
    [ ( "paper derivations",
        [ Alcotest.test_case "Rewriting Example 1 (membership)" `Quick test_rewriting_example1;
          Alcotest.test_case "Rewriting Example 2 (inclusion)" `Quick test_rewriting_example2;
          Alcotest.test_case "Rewriting Example 3 (exchange)" `Quick test_rewriting_example3;
          Alcotest.test_case "Rule 2 (map nesting)" `Quick test_rule2;
          Alcotest.test_case "Rule 2 generalized" `Quick test_rule2_general;
          Alcotest.test_case "Rule 2 with renaming" `Quick test_rule2_rename;
          Alcotest.test_case "disjunction split" `Quick test_disjunction_split;
          Alcotest.test_case "Example Query 4 (attr unnest)" `Quick test_attr_unnest_query4;
          Alcotest.test_case "attr unnest guard" `Quick test_attr_unnest_guard ] );
      ( "grouping and the Complex Object bug",
        [ Alcotest.test_case "Figure 2 bug" `Quick test_figure2_bug;
          Alcotest.test_case "guarded grouping" `Quick test_guarded_grouping;
          Alcotest.test_case "outer-join mode" `Quick test_outerjoin_mode;
          Alcotest.test_case "nestjoin for map nesting" `Quick test_nestjoin_map ] );
      ( "paper corpus",
        [ Alcotest.test_case "equivalence on all queries" `Quick test_paper_corpus;
          Alcotest.test_case "plan shapes" `Quick test_paper_corpus_shapes;
          Alcotest.test_case "work reduction" `Quick test_work_reduction ] );
      ( "soundness",
        [ soundness_prop Strategy.Nestjoin_always;
          soundness_prop Strategy.Flat_join_when_safe;
          soundness_prop Strategy.Outerjoin;
          prop_random_predicates;
          prop_type_preservation ] ) ]
