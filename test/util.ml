(* Shared helpers for the test suites: alcotest testables, small fixture
   catalogs, and QCheck generators for random databases and values. *)

open Njq_adl
module Metrics = Njq_obs.Metrics

let value : Value.t Alcotest.testable = Alcotest.testable Value.pp Value.equal

let vtype : Vtype.t Alcotest.testable = Alcotest.testable Vtype.pp Vtype.equal

let expr : Expr.t Alcotest.testable = Alcotest.testable Pretty.pp Expr.equal

let check_value = Alcotest.check value

(* QCheck test registered as an alcotest case. *)
let qcheck ?(count = 200) name arb law =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb law)

(* ------------------------------------------------------------------ *)
(* Fixture: the supplier-part catalog used throughout the rewriter and
   evaluator tests, small enough to reason about by hand. *)

let row = Value.tuple
let vset = Value.set
let vi = Value.int
let vs = Value.string
let vo = Value.oid

let part ~oid ~pname ~price ~color =
  row [ ("oid", vo oid); ("pname", vs pname); ("price", vi price); ("color", vs color) ]

let supplier ~oid ~sname ~parts =
  row [ ("oid", vo oid); ("sname", vs sname);
        ("parts_supplied", vset (List.map vo parts)) ]

let part_row_type = Njq_workload.Generator.part_row_type
let supplier_row_type = Njq_workload.Generator.supplier_row_type

(* Four parts, four suppliers; s3 has an empty parts set, s2 has a dangling
   reference (oid 99). *)
let small_catalog () =
  let cat = Catalog.create () in
  Catalog.add_table cat ~name:"PART" ~row_type:part_row_type
    [ part ~oid:1 ~pname:"bolt" ~price:10 ~color:"red";
      part ~oid:2 ~pname:"nut" ~price:5 ~color:"green";
      part ~oid:3 ~pname:"cam" ~price:25 ~color:"red";
      part ~oid:4 ~pname:"cog" ~price:50 ~color:"blue" ];
  Catalog.add_table cat ~name:"SUPPLIER" ~row_type:supplier_row_type
    [ supplier ~oid:10 ~sname:"s0" ~parts:[ 1; 2 ];
      supplier ~oid:11 ~sname:"s1" ~parts:[ 1; 2; 3; 4 ];
      supplier ~oid:12 ~sname:"s2" ~parts:[ 2; 99 ];
      supplier ~oid:13 ~sname:"s3" ~parts:[] ];
  cat

(* ------------------------------------------------------------------ *)
(* QCheck generators *)

(* Random flat X(a, c:{int}) and Y(d, e) tables in the shape of Figures 1-2,
   exercising empty sets and dangling tuples. *)
let gen_small_int = QCheck.Gen.int_range 0 4

let gen_int_set = QCheck.Gen.(list_size (int_range 0 4) gen_small_int)

let gen_x_row =
  QCheck.Gen.(
    map2
      (fun a c ->
        row [ ("a", vi a); ("c", vset (List.map vi c)) ])
      gen_small_int gen_int_set)

let gen_y_row =
  QCheck.Gen.(
    map2 (fun d e -> row [ ("d", vi d); ("e", vi e) ]) gen_small_int gen_small_int)

let gen_xy_tables =
  QCheck.Gen.(
    pair (list_size (int_range 0 6) gen_x_row) (list_size (int_range 0 6) gen_y_row))

let xy_catalog (xs, ys) =
  let cat = Catalog.create () in
  Catalog.add_table cat ~name:"X"
    ~row_type:(Vtype.tuple [ ("a", Vtype.TInt); ("c", Vtype.TSet Vtype.TInt) ])
    xs;
  Catalog.add_table cat ~name:"Y"
    ~row_type:(Vtype.tuple [ ("d", Vtype.TInt); ("e", Vtype.TInt) ])
    ys;
  cat

let arbitrary_xy =
  QCheck.make gen_xy_tables
    ~print:(fun (xs, ys) ->
      Fmt.str "X=%a@.Y=%a" (Fmt.Dump.list Value.pp) xs (Fmt.Dump.list Value.pp) ys)

(* Random ground values (no NULL), used for Value algebra laws. *)
let gen_value : Value.t QCheck.Gen.t =
  let open QCheck.Gen in
  sized @@ fix (fun self n ->
      let atom =
        oneof
          [ map Value.int (int_range (-20) 20);
            map Value.string (oneofl [ "a"; "b"; "c"; "d" ]);
            map Value.bool bool;
            map Value.oid (int_range 0 9) ]
      in
      if n = 0 then atom
      else
        frequency
          [ (3, atom);
            (1,
             map
               (fun vs -> Value.set vs)
               (list_size (int_range 0 4) (self (n / 2))));
            (1,
             map
               (fun vs ->
                 Value.tuple (List.mapi (fun i v -> (Printf.sprintf "f%d" i, v)) vs))
               (list_size (int_range 0 3) (self (n / 2)))) ])

let arbitrary_value = QCheck.make gen_value ~print:Value.show

let gen_int_set_value =
  QCheck.Gen.map (fun xs -> Value.set (List.map Value.int xs)) gen_int_set

let arbitrary_int_set =
  QCheck.make gen_int_set_value ~print:Value.show

(* ------------------------------------------------------------------ *)
(* Random nested predicates over the XY schema: boolean expressions with
   one free variable "x" (a row of X), mixing scalar comparisons,
   correlated subqueries over the base table Y, set comparisons against
   x.c, quantifiers and aggregates — the full space the strategy must
   rewrite soundly. *)

let gen_xy_pred : Expr.t QCheck.Gen.t =
  let open QCheck.Gen in
  let open Dsl in
  let xa = var "x" $. "a" and xc = var "x" $. "c" in
  (* correlated / uncorrelated subqueries over Y producing a set of ints *)
  let gen_sub =
    oneofl
      [ map_ "y" (select "y" (table "Y") (eq xa (var "y" $. "d"))) (var "y" $. "e");
        map_ "y" (select "y" (table "Y") (le (var "y" $. "d") xa)) (var "y" $. "e");
        map_ "y" (table "Y") (var "y" $. "d");
        map_ "y" (select "y" (table "Y") (eq xa (var "y" $. "d"))) (var "y" $. "d") ]
  in
  let gen_cmp_op = oneofl [ Expr.Eq; Expr.Neq; Expr.Lt; Expr.Le; Expr.Gt; Expr.Ge ] in
  let gen_setcmp_op =
    oneofl
      [ Expr.SubsetEq; Expr.Subset; Expr.SupsetEq; Expr.Supset; Expr.SetEq;
        Expr.SetNeq ]
  in
  let atom =
    oneof
      [ (let* op = gen_cmp_op in
         let* k = int_range 0 4 in
         return (Expr.Cmp (op, xa, int k)));
        (let* sub = gen_sub in
         return (mem xa sub));
        (let* op = gen_setcmp_op in
         let* sub = gen_sub in
         return (Expr.SetCmp (op, xc, sub)));
        (let* op = gen_setcmp_op in
         let* sub = gen_sub in
         return (Expr.SetCmp (op, sub, xc)));
        (let* sub = gen_sub in
         return (set_eq sub empty));
        (let* op = gen_cmp_op in
         let* sub = gen_sub in
         return (Expr.Cmp (op, count sub, count xc)));
        (let* sub = gen_sub in
         return (exists "z" xc (mem (var "z") sub)));
        (let* sub = gen_sub in
         return (forall "z" xc (mem (var "z") sub)));
        return (exists "z" xc (exists "y" (table "Y") (eq (var "z") (var "y" $. "e"))));
        return (forall "y" (table "Y") (mem (var "y" $. "e") xc)) ]
  in
  sized_size (int_range 0 2) @@ fix (fun self n ->
      if n = 0 then atom
      else
        frequency
          [ (3, atom);
            (2,
             let* a = self (n - 1) in
             let* b = self (n - 1) in
             oneofl [ Expr.And (a, b); Expr.Or (a, b) ]);
            (1, map (fun a -> Expr.Not a) (self (n - 1))) ])

let arbitrary_xy_pred_and_tables =
  QCheck.make
    QCheck.Gen.(pair gen_xy_pred gen_xy_tables)
    ~print:(fun (p, (xs, ys)) ->
      Fmt.str "pred = %a@.X=%a@.Y=%a" Njq_adl.Pretty.pp p
        (Fmt.Dump.list Value.pp) xs (Fmt.Dump.list Value.pp) ys)

(* ------------------------------------------------------------------ *)
(* Fusion oracle: [plan] with no fused edge above its leaves.  Every
   non-leaf child is run to its row list (bottom-up, so its own inputs
   are cut the same way) and spliced back as a [Plan.Materialized] leaf.
   [run_materialized] returns the rows and the counter totals of the
   whole computation, the pre-runs included. *)

let rec materialize_edges cat plan =
  let module Plan = Njq_engine.Plan in
  match Plan.children plan with
  | [] -> plan
  | cs ->
    Plan.with_children plan
      (List.map
         (fun c ->
           match Plan.children c with
           | [] -> c
           | _ ->
             Plan.Materialized
               (Njq_engine.Exec.rows cat (materialize_edges cat c)))
         cs)

let run_materialized cat plan =
  Metrics.reset_counters ();
  let rows = Njq_engine.Exec.rows cat (materialize_edges cat plan) in
  (rows, Metrics.counter_snapshot ())

(* Run [f], mapping an evaluation or type error to [Error ()]. *)
let outcome f =
  match f () with
  | v -> Ok v
  | exception (Eval.Eval_error _ | Value.Type_error _) -> Error ()

(* Two [outcome]s of [run_materialized]-shaped runs agree: both failed, or
   both returned the same rows in the same order with the same counter
   totals. *)
let same_run a b =
  match a, b with
  | Ok (rows, counters), Ok (rows', counters') ->
    List.length rows = List.length rows'
    && List.for_all2 Value.equal rows rows'
    && counters = counters'
  | Error (), Error () -> true
  | _ -> false

(* [plan] with the parallel policy set on every operator that has one,
   whatever its size: hash joins (inner, semi, anti) and hash nestjoins
   with keys run over 4 resident partitions, filters and maps as morsels.
   The planner sets only the morsel flag, on inputs past its 256-row
   threshold when the pool has two or more domains: this is how tests
   reach the resident parallel join paths. *)
let rec parallel plan =
  let module Plan = Njq_engine.Plan in
  let plan = Plan.with_children plan (List.map parallel (Plan.children plan)) in
  let algo = Plan.Partitioned { partitions = 4; mem_budget = max_int } in
  match plan with
  | Plan.JoinOp
      ({ algo = Plan.Hash; kind = Expr.Inner | Expr.Semi | Expr.Anti;
         keys = _ :: _; _ } as j) ->
    Plan.JoinOp { j with algo }
  | Plan.NestjoinOp ({ algo = Plan.Hash; keys = _ :: _; _ } as j) ->
    Plan.NestjoinOp { j with algo }
  | Plan.Filter f -> Plan.Filter { f with morsel = true }
  | Plan.MapOp m -> Plan.MapOp { m with morsel = true }
  | p -> p
