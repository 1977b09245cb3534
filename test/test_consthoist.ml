(* Tests for uncorrelated-subquery hoisting (paper Section 3: uncorrelated
   subqueries are constants). *)

open Njq_adl
open Dsl
module Metrics = Njq_obs.Metrics
module Consthoist = Njq_engine.Consthoist
module Plan = Njq_engine.Plan
module Plancache = Njq_engine.Plancache

let cat () = Util.small_catalog ()

let rec contains p e =
  p e || Expr.fold_children (fun acc c -> acc || contains p c) false e

let has_table e = contains (function Expr.Table _ -> true | _ -> false) e

let has_substring ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

let red_oids =
  map_ "p" (select "p" (table "PART") (eq (var "p" $. "color") (str "red")))
    (var "p" $. "oid")

let test_hoists_uncorrelated () =
  let cat = cat () in
  (* sigma[s : s.parts 'inter' RED_OIDS <> {}](SUPPLIER): the subquery is
     closed and would be re-evaluated per supplier. *)
  let q =
    select "s" (table "SUPPLIER")
      (set_neq (inter (var "s" $. "parts_supplied") red_oids) empty)
  in
  let hoisted = Consthoist.hoist cat q in
  (match hoisted with
   | Expr.Select { pred; src = Expr.Table "SUPPLIER"; _ } ->
     Alcotest.(check bool) "no base table left in the predicate" false
       (has_table pred);
     Alcotest.(check bool) "a constant set appears" true
       (contains (function Expr.Const (Value.VSet _) -> true | _ -> false) pred)
   | e -> Alcotest.failf "unexpected shape %a" Pretty.pp e);
  Alcotest.check Util.value "semantics preserved" (Eval.run cat q)
    (Eval.run cat hoisted)

let test_keeps_correlated () =
  let cat = cat () in
  let correlated =
    select "s" (table "SUPPLIER")
      (exists "p" (table "PART")
         (mem (var "p" $. "oid") (var "s" $. "parts_supplied")))
  in
  let hoisted = Consthoist.hoist cat correlated in
  (* The quantifier range (Table PART) is closed but already a constant
     reference, so it stays; the correlated predicate around it must
     remain. *)
  (match hoisted with
   | Expr.Select { pred = Expr.Quant (Expr.Exists, _, Expr.Table "PART", _); _ } ->
     ()
   | e -> Alcotest.failf "unexpected shape %a" Pretty.pp e);
  Alcotest.check Util.value "semantics preserved" (Eval.run cat correlated)
    (Eval.run cat hoisted)

let test_operands_untouched () =
  let cat = cat () in
  let q = semijoin ~x:"s" ~y:"p" (ni (var "s" $. "parts_supplied") (var "p" $. "oid"))
      (table "SUPPLIER")
      (select "p" (table "PART") (eq (var "p" $. "color") (str "red")))
  in
  let hoisted = Consthoist.hoist cat q in
  (match hoisted with
   | Expr.Join { left = Expr.Table "SUPPLIER"; right = Expr.Select { src = Expr.Table "PART"; _ }; _ } ->
     ()
   | e -> Alcotest.failf "operands must stay symbolic, got %a" Pretty.pp e);
  Alcotest.check Util.value "semantics preserved" (Eval.run cat q)
    (Eval.run cat hoisted)

let test_work_reduction () =
  let cat =
    Njq_workload.Generator.catalog (Njq_workload.Generator.scaled ~seed:5 128)
  in
  let q =
    select "s" (table "SUPPLIER")
      (set_neq (inter (var "s" $. "parts_supplied") red_oids) empty)
  in
  let work e =
    Metrics.reset_counters ();
    ignore (Eval.run cat e);
    Metrics.get "nl_pred_eval"
  in
  let before = work q and after = work (Consthoist.hoist cat q) in
  Alcotest.(check bool)
    (Printf.sprintf "hoisting removes per-tuple evaluation (%d -> %d)" before after)
    true
    (after * 10 < before)

(* The plan cache stores the plan of exactly its text, derived the one
   way every command derives: the closed count subquery is hoisted to a
   constant.  A [?0] inside the subquery leaves it open, so the template's
   plan keeps the extent [PART] symbolic. *)
let test_cache_stores_hoisted_plan () =
  let cat = cat () in
  let derive text =
    let adl, _ =
      Njq_oosql.Translate.query_string Njq_workload.Queries.schema text
    in
    snd (Njq_engine.Planner.derive cat adl)
  in
  let text =
    "select p.pname from p in PART where p.price > count(select q from q in \
     PART where q.price > 3)"
  in
  let cached, _ =
    Plancache.find_or_derive cat ~options:"consthoist" text ~derive:(fun () ->
        derive text)
  in
  Alcotest.(check string) "cached plan = plan of the literal text"
    (Plan.to_string (derive text)) (Plan.to_string cached);
  let template =
    Plan.to_string
      (derive
         "select p.pname from p in PART where p.price > count(select q from q \
          in PART where q.price > ?0)")
  in
  Alcotest.(check bool)
    ("template keeps the extent: " ^ template)
    true
    (has_substring ~sub:"q.price > ?0](PART)" template)

(* A closed subquery that fails when evaluated — every price divided by
   zero — stays in place: hoisting must not fail where the reference
   evaluator does not reach it.  Each query, hoisted, planned and run,
   equals [Eval] of the query itself. *)
let failing =
  count (map_ "p" (table "PART") (Expr.Arith (Expr.Div, var "p" $. "price", int 0)))

let check_unreached name cat q =
  let hoisted = Consthoist.hoist cat q in
  Alcotest.check Util.value name (Eval.run cat q)
    (Njq_engine.Exec.run cat (Njq_engine.Planner.plan ~cat hoisted))

let test_failing_short_circuit () =
  let cat = cat () in
  check_unreached "short-circuited conjunct" cat
    (select "s" (table "SUPPLIER")
       (eq (var "s" $. "sname") (str "zzz") &&& gt failing (int 0)))

let test_failing_untaken_if () =
  let cat = cat () in
  check_unreached "untaken if branch" cat
    (map_ "s" (table "SUPPLIER")
       (if_ (eq (var "s" $. "sname") (str "zzz")) failing (int 0)))

let test_failing_empty_extent () =
  let cat = cat () in
  Catalog.set_rows cat "SUPPLIER" [];
  check_unreached "empty outer extent" cat
    (map_ "s" (table "SUPPLIER") (add (count (var "s" $. "parts_supplied")) failing))

let prop_hoist_sound =
  Util.qcheck ~count:200 "hoisting preserves semantics"
    Util.arbitrary_xy_pred_and_tables
    (fun (pred, tables) ->
      let cat = Util.xy_catalog tables in
      let q = select "x" (table "X") pred in
      Value.equal (Eval.run cat q) (Eval.run cat (Consthoist.hoist cat q)))

let () =
  Alcotest.run "consthoist"
    [ ( "hoisting",
        [ Alcotest.test_case "uncorrelated hoisted" `Quick test_hoists_uncorrelated;
          Alcotest.test_case "correlated kept" `Quick test_keeps_correlated;
          Alcotest.test_case "cache stores the hoisted plan" `Quick
            test_cache_stores_hoisted_plan;
          Alcotest.test_case "operands untouched" `Quick test_operands_untouched;
          Alcotest.test_case "work reduction" `Quick test_work_reduction;
          Alcotest.test_case "failing subquery in a short-circuited conjunct"
            `Quick test_failing_short_circuit;
          Alcotest.test_case "failing subquery in an untaken if" `Quick
            test_failing_untaken_if;
          Alcotest.test_case "failing subquery over an empty extent" `Quick
            test_failing_empty_extent ] );
      ("properties", [ prop_hoist_sound ]) ]
