(* Tests for the supporting infrastructure: catalog, the rewrite-rule
   driver, counters, and the pretty-printers (ADL and plans). *)

open Njq_adl
module Metrics = Njq_obs.Metrics
open Dsl

(* ---------------- Catalog ---------------- *)

let test_catalog_basics () =
  let cat = Catalog.create () in
  let row_type = Vtype.tuple [ ("oid", Vtype.TOid); ("v", Vtype.TInt) ] in
  let r n v = Value.tuple [ ("oid", Value.oid n); ("v", Value.int v) ] in
  Catalog.add_table cat ~name:"T" ~row_type [ r 2 20; r 1 10; r 1 10 ];
  Alcotest.(check int) "rows deduplicated" 2 (Catalog.cardinality cat "T");
  Alcotest.(check bool) "mem" true (Catalog.mem cat "T");
  Alcotest.(check (list string)) "names" [ "T" ] (Catalog.table_names cat);
  Alcotest.check Util.vtype "table type" (Vtype.TSet row_type)
    (Catalog.table_type cat "T");
  Alcotest.check_raises "unknown table" (Catalog.Unknown_table "U") (fun () ->
      ignore (Catalog.rows cat "U"));
  (match Catalog.add_table cat ~name:"T" ~row_type [] with
   | () -> Alcotest.fail "duplicate table accepted"
   | exception Invalid_argument _ -> ());
  match Catalog.add_table cat ~name:"B" ~row_type:Vtype.TInt [] with
  | () -> Alcotest.fail "non-tuple row type accepted"
  | exception Invalid_argument _ -> ()

let test_catalog_oids_and_deref () =
  let cat = Catalog.create () in
  let a = Catalog.fresh_oid cat and b = Catalog.fresh_oid cat in
  Alcotest.(check bool) "fresh oids distinct" true (a <> b);
  let row_type = Vtype.tuple [ ("oid", Vtype.TOid); ("v", Vtype.TInt) ] in
  let r n v = Value.tuple [ ("oid", Value.oid n); ("v", Value.int v) ] in
  Catalog.add_table cat ~name:"T" ~row_type [ r 1 10; r 2 20 ];
  Alcotest.check Util.value "deref hits" (r 2 20) (Catalog.deref cat "T" (Value.oid 2));
  Alcotest.(check bool) "deref_opt miss" true
    (Catalog.deref_opt cat "T" (Value.oid 99) = None);
  (* set_rows invalidates the oid index *)
  Catalog.set_rows cat "T" [ r 3 30 ];
  Alcotest.(check bool) "old oid gone" true
    (Catalog.deref_opt cat "T" (Value.oid 2) = None);
  Alcotest.check Util.value "new oid found" (r 3 30)
    (Catalog.deref cat "T" (Value.oid 3))

(* The row count is kept beside the rows: it must follow every write. *)
let test_catalog_cardinality () =
  let cat = Catalog.create () in
  let row_type = Vtype.tuple [ ("oid", Vtype.TOid); ("v", Vtype.TInt) ] in
  let r n v = Value.tuple [ ("oid", Value.oid n); ("v", Value.int v) ] in
  let check what =
    Alcotest.(check int) what
      (List.length (Catalog.rows cat "T"))
      (Catalog.cardinality cat "T")
  in
  Catalog.add_table cat ~name:"T" ~row_type [ r 1 10; r 2 20; r 1 10; r 3 30 ];
  check "after add_table";
  Alcotest.(check int) "duplicates not counted" 3 (Catalog.cardinality cat "T");
  Catalog.set_rows cat "T" [ r 4 40; r 4 40 ];
  check "after set_rows";
  Catalog.set_rows cat "T" [];
  check "after emptying";
  Catalog.add_table cat ~name:"E" ~row_type [];
  Alcotest.(check int) "empty extent" 0 (Catalog.cardinality cat "E");
  Alcotest.(check (float 0.0)) "cost model reads the count" 0.0
    (Njq_engine.Cost.rows_out cat (Njq_engine.Plan.Scan "T"))

(* Pointer-based member joins probe through [deref_opt]: one tick per
   probe, [None] for dangling oids and for values that are not oids. *)
let test_deref_opt_never_raises () =
  let cat = Catalog.create () in
  let row_type = Vtype.tuple [ ("oid", Vtype.TOid); ("v", Vtype.TInt) ] in
  Catalog.add_table cat ~name:"T" ~row_type
    [ Value.tuple [ ("oid", Value.oid 1); ("v", Value.int 10) ] ];
  let probes = [ Value.oid 1; Value.oid 7; Value.int 1; Value.string "x"; Value.VNull ] in
  let hits, { Metrics.work; _ } =
    Metrics.measure (fun () ->
        List.filter_map (Catalog.deref_opt cat "T") probes)
  in
  Alcotest.(check int) "only the live oid resolves" 1 (List.length hits);
  Alcotest.(check (list (pair string int))) "one oid_lookup per probe"
    [ ("oid_lookup", List.length probes) ] work

(* The oid index holds each oid's position in [rows_array]: [deref] must
   return that very row, and [deref_field] its attribute, with one
   "oid_lookup" tick each, whatever the oids look like. *)
let test_positional_oid_index () =
  let cat = Catalog.create () in
  let row_type = Vtype.tuple [ ("oid", Vtype.TOid); ("v", Vtype.TInt) ] in
  let r n v = Value.tuple [ ("oid", Value.oid n); ("v", Value.int v) ] in
  (* Sparse: a power-of-two stride over a wide range. *)
  Catalog.add_table cat ~name:"S" ~row_type
    (List.init 64 (fun i -> r ((i * 4096) + 7) i));
  let rows = Catalog.rows_array cat "S" in
  let (), { Metrics.work; _ } =
    Metrics.measure (fun () ->
        Array.iter
          (fun row ->
            let o = Value.field row "oid" in
            Alcotest.(check bool) "deref returns the stored row" true
              (Catalog.deref cat "S" o == row);
            Alcotest.check Util.value "deref_field reads its column"
              (Value.field row "v")
              (Catalog.deref_field cat "S" "v" o))
          rows)
  in
  Alcotest.(check (list (pair string int))) "one oid_lookup per dereference"
    [ ("oid_lookup", 2 * Array.length rows) ] work;
  Alcotest.(check bool) "sparse oids are a key" true (Catalog.oid_key cat "S");
  Alcotest.(check bool) "between two oids" true
    (Catalog.deref_opt cat "S" (Value.oid 8) = None);
  (* Scattered and negative oids, enough of them that probe chains form. *)
  let scattered = List.init 2000 (fun i -> r ((i * i * 7919) - 1_000_000) i) in
  Catalog.add_table cat ~name:"W" ~row_type scattered;
  Alcotest.(check bool) "scattered oids are a key" true (Catalog.oid_key cat "W");
  List.iter
    (fun row ->
      Alcotest.(check bool) "scattered oid resolves" true
        (Catalog.deref cat "W" (Value.field row "oid") == row))
    scattered;
  Alcotest.(check int) "misses stay misses" 0
    (List.length
       (List.filter_map
          (fun i -> Catalog.deref_opt cat "W" (Value.oid ((i * i * 7919) - 999_999)))
          (List.init 2000 Fun.id)));
  (* Duplicate oids: the last row in canonical order answers, and oid is
     no key. *)
  Catalog.add_table cat ~name:"D" ~row_type [ r 1 20; r 1 10; r 2 30 ];
  Alcotest.(check bool) "duplicate oids are no key" false (Catalog.oid_key cat "D");
  Alcotest.check Util.value "last duplicate answers" (r 1 20)
    (Catalog.deref cat "D" (Value.oid 1));
  Alcotest.check Util.value "its column agrees" (Value.int 20)
    (Catalog.deref_field cat "D" "v" (Value.oid 1));
  (* Rows without an oid, or with a non-oid "oid", are not indexed; a row
     without the attribute raises the row path's error. *)
  Catalog.add_table cat ~name:"N" ~row_type
    [ r 1 10;
      Value.tuple [ ("v", Value.int 5) ];
      Value.tuple [ ("oid", Value.int 3); ("v", Value.int 3) ];
      Value.tuple [ ("oid", Value.oid 4) ] ];
  Alcotest.(check bool) "rows without oids: no key" false (Catalog.oid_key cat "N");
  Alcotest.check_raises "non-oid oid is not indexed"
    (Value.Type_error "dangling reference #3 into N") (fun () ->
      ignore (Catalog.deref cat "N" (Value.oid 3)));
  Alcotest.check_raises "missing attribute"
    (Value.Type_error "tuple has no field v") (fun () ->
      ignore (Catalog.deref_field cat "N" "v" (Value.oid 4)));
  Alcotest.check_raises "non-oid reference"
    (Value.Type_error "expected oid, got rank 2") (fun () ->
      ignore (Catalog.deref_field cat "N" "v" (Value.int 1)));
  Alcotest.check Util.value "present attribute" (Value.int 10)
    (Catalog.deref_field cat "N" "v" (Value.oid 1))

(* ---------------- Rules driver ---------------- *)

let incr_rule =
  Njq_core.Rules.rule "incr" (fun _cat e ->
      match e with
      | Expr.Const (Value.VInt n) when n < 3 -> Some (Expr.Const (Value.int (n + 1)))
      | _ -> None)

let test_driver_fixpoint () =
  let cat = Catalog.create () in
  let e = add (int 0) (int 5) in
  let out, trace = Njq_core.Rules.fixpoint cat [ incr_rule ] e in
  Alcotest.check Util.expr "both positions saturated" (add (int 3) (int 5)) out;
  Alcotest.(check int) "three steps" 3 (List.length trace);
  List.iter
    (fun s -> Alcotest.(check string) "rule name" "incr" s.Njq_core.Rules.rule_name)
    trace

let test_driver_outermost_first () =
  (* A rule matching both an outer and an inner node must fire at the outer
     one first. *)
  let wrap_rule =
    Njq_core.Rules.rule "strip-not" (fun _cat e ->
        match e with Expr.Not inner -> Some inner | _ -> None)
  in
  let cat = Catalog.create () in
  let e = not_ (not_ (bool true)) in
  match Njq_core.Rules.step_anywhere cat [ wrap_rule ] e with
  | Some ("strip-not", Expr.Not (Expr.Const _)) -> ()
  | Some (_, e') -> Alcotest.failf "unexpected step result %a" Pretty.pp e'
  | None -> Alcotest.fail "no step"

let test_driver_fuel () =
  let diverging =
    Njq_core.Rules.rule "spin" (fun _cat e ->
        match e with
        | Expr.Const (Value.VInt n) -> Some (Expr.Const (Value.int (n + 1)))
        | _ -> None)
  in
  let cat = Catalog.create () in
  match Njq_core.Rules.fixpoint ~fuel:10 cat [ diverging ] (int 0) with
  | _ -> Alcotest.fail "diverging rule set not caught"
  | exception Failure _ -> ()

(* ---------------- Counters ---------------- *)

let test_counters () =
  Metrics.reset_counters ();
  let tick ?n name = Metrics.incr ?n (Metrics.counter name) in
  tick "a";
  tick ~n:4 "a";
  tick "b";
  Alcotest.(check int) "a" 5 (Metrics.get "a");
  Alcotest.(check int) "unknown" 0 (Metrics.get "zz");
  Alcotest.(check (list (pair string int))) "snapshot sorted"
    [ ("a", 5); ("b", 1) ] (Metrics.counter_snapshot ());
  let x, { Metrics.work; _ } = Metrics.measure (fun () -> tick "c"; 42) in
  Alcotest.(check int) "measure result" 42 x;
  Alcotest.(check (list (pair string int))) "measure snapshot" [ ("c", 1) ] work

(* ---------------- Pretty-printers ---------------- *)

let contains_sub ~needle s =
  let n = String.length needle and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = needle || go (i + 1)) in
  go 0

let test_adl_pretty () =
  let check_str name needle e =
    let s = Pretty.to_string e in
    if not (contains_sub ~needle s) then
      Alcotest.failf "%s: %S not in %S" name needle s
  in
  check_str "select" "σ[x :" (select "x" (table "T") (bool true));
  check_str "map" "α[x :" (map_ "x" (table "T") (var "x"));
  check_str "semijoin" "⋉" (semijoin (bool true) (table "T") (table "U"));
  check_str "antijoin" "▷" (antijoin (bool true) (table "T") (table "U"));
  check_str "nestjoin" "⊣" (nestjoin ~attr:"g" (bool true) (table "T") (table "U"));
  check_str "unnest" "μ_c" (unnest "c" (table "T"));
  check_str "nest" "ν_{a→g}" (nest ~attrs:[ "a" ] ~into:"g" (table "T"));
  check_str "division" "÷" (divide (table "T") (table "U"));
  check_str "exists" "∃" (exists "x" (table "T") (bool true));
  check_str "deref" "deref⟨P⟩" (deref "P" (oid 1));
  (* precedence: and of or needs parens *)
  check_str "parens" "(a ∨ b) ∧ c"
    ((var "a" ||| var "b") &&& var "c")

let test_plan_pretty () =
  let p =
    Njq_engine.Planner.plan
      (semijoin ~x:"a" ~y:"b"
         (eq (var "a" $. "k") (var "b" $. "k"))
         (table "T") (table "U"))
  in
  let s = Njq_engine.Plan.to_string p in
  Alcotest.(check bool) "hash semijoin printed" true
    (contains_sub ~needle:"hash_semijoin" s);
  (* A pointer-based member join names the extent it reaches through the
     oid index in place of a right child. *)
  let pointer =
    Njq_engine.Plan.MemberJoin
      { kind = Njq_engine.Plan.MNest { body = var "p" $. "pname"; attr = "g" };
        xvar = "s"; yvar = "p"; xset = var "s" $. "parts_supplied";
        elem_var = "z"; elem_key = var "z"; ykey = var "p" $. "oid";
        left = Njq_engine.Plan.Scan "SUPPLIER";
        right = Njq_engine.Plan.Oid_index "PART" }
  in
  Alcotest.(check string) "pointer member join printed"
    "member_nestjoin→g[s.parts_supplied](scan(SUPPLIER), oid(PART))"
    (Njq_engine.Plan.to_string pointer)

let () =
  Alcotest.run "infra"
    [ ( "catalog",
        [ Alcotest.test_case "basics" `Quick test_catalog_basics;
          Alcotest.test_case "oids and deref" `Quick test_catalog_oids_and_deref;
          Alcotest.test_case "cardinality follows writes" `Quick
            test_catalog_cardinality;
          Alcotest.test_case "positional oid index" `Quick
            test_positional_oid_index;
          Alcotest.test_case "deref_opt never raises" `Quick
            test_deref_opt_never_raises ] );
      ( "rules driver",
        [ Alcotest.test_case "fixpoint" `Quick test_driver_fixpoint;
          Alcotest.test_case "outermost first" `Quick test_driver_outermost_first;
          Alcotest.test_case "fuel" `Quick test_driver_fuel ] );
      ( "counters",
        [ Alcotest.test_case "ticks" `Quick test_counters ] );
      ( "printers",
        [ Alcotest.test_case "ADL notation" `Quick test_adl_pretty;
          Alcotest.test_case "plan notation" `Quick test_plan_pretty ] ) ]
