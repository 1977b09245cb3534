(* Tests for the cost-based join-order enumerator (Joinorder).

   The contract: reordering is invisible in results.  Over generated 3-6
   relation graphs with inner-join, semijoin, antijoin and nestjoin edges,
   the plan with its first inner-join region replaced by each enumerated
   order of that region produces results bit-identical to the
   rewriter-order plan and to the reference evaluator, at 1/2/4 pool
   domains; the other edges end regions and stay where they are written.
   Distinct enumerated orders carry distinct plan fingerprints (the
   observability hook: a changed order choice shows up in qlog/njq top).
   Enumerated plans flow through the plan cache under the normal key
   discipline.  A region past the DP's ten relations keeps its written
   order. *)

open Njq_adl
open Dsl
module Plan = Njq_engine.Plan
module Planner = Njq_engine.Planner
module Joinorder = Njq_engine.Joinorder
module Exec = Njq_engine.Exec
module Pool = Njq_engine.Pool
module Plancache = Njq_engine.Plancache
module Stats = Njq_engine.Stats

let with_domains k f =
  let prev = Pool.domains () in
  Pool.set_domains k;
  Fun.protect ~finally:(fun () -> Pool.set_domains prev) f

(* ------------------------------------------------------------------ *)
(* Random 3-6 relation join graphs.  Relation [i] carries attributes
   a<i>/b<i> (globally distinct names, the rename discipline the
   enumerator requires); edges link a fresh relation to a random already
   visible one.  Inner edges make the new relation's attributes visible;
   semijoin/antijoin/nestjoin edges end the inner-join region below
   them. *)

type edge_kind = EJoin | ESemi | EAnti | ENest

let an i = Printf.sprintf "a%d" i
let bn i = Printf.sprintf "b%d" i
let tn i = Printf.sprintf "T%d" i

let row_type i =
  Vtype.TTuple [ (an i, Vtype.TInt); (bn i, Vtype.TInt) ]

let mk_catalog rows_per_table =
  let cat = Catalog.create () in
  List.iteri
    (fun i rows ->
      Catalog.add_table cat ~name:(tn i) ~row_type:(row_type i)
        (List.map
           (fun (a, b) -> Value.tuple [ (an i, Value.int a); (bn i, Value.int b) ])
           rows))
    rows_per_table;
  cat

(* One graph: per-table rows, per-edge (kind, anchor choice, extra
   residual?, pre-filter?), and a bool for a filter on the accumulated
   result after the last join. *)
let gen_graph =
  QCheck.Gen.(
    let gen_rows = list_size (int_range 0 6) (pair (int_range 0 4) (int_range 0 4)) in
    int_range 3 6 >>= fun k ->
    list_repeat k gen_rows >>= fun tables ->
    list_repeat (k - 1)
      (quad (int_range 0 3) (int_range 0 1000) bool bool)
    >>= fun edges ->
    bool >>= fun final_filter -> return (tables, edges, final_filter))

let edge_kind = function
  | 0 -> ESemi
  | 1 -> EAnti
  | 2 -> ENest
  | _ -> EJoin

(* Build the left-deep as-written query.  [visible] tracks relations whose
   attributes survive in the accumulated rows. *)
let build_query (tables, edges, final_filter) =
  let k = List.length tables in
  let acc = ref (table (tn 0)) in
  let visible = ref [ 0 ] in
  let produced = ref [] in
  List.iteri
    (fun idx (kindn, anchorn, extra, prefilter) ->
      let i = idx + 1 in
      let kind = edge_kind kindn in
      (* more inner joins than constraint edges, so regions grow *)
      let kind = if kindn = 3 || i = 1 then EJoin else kind in
      let anchor = List.nth !visible (anchorn mod List.length !visible) in
      let x = "x" and y = "y" in
      let key = eq (var x $. an anchor) (var y $. an i) in
      let pred =
        if extra then key &&& le (var x $. bn anchor) (var y $. bn i) else key
      in
      let right =
        if prefilter then select "s" (table (tn i)) (le (var "s" $. bn i) (int 2))
        else table (tn i)
      in
      (match kind with
      | EJoin ->
        acc := join ~x ~y pred !acc right;
        visible := !visible @ [ i ]
      | ESemi -> acc := semijoin ~x ~y pred !acc right
      | EAnti -> acc := antijoin ~x ~y pred !acc right
      | ENest ->
        let attr = Printf.sprintf "g%d" i in
        acc := nestjoin ~x ~y ~body:(var y $. bn i) ~attr pred !acc right;
        produced := attr :: !produced);
      ignore k)
    edges;
  let q =
    if final_filter then
      let anchor = List.nth !visible (List.length !visible - 1) in
      select "f" !acc (le (var "f" $. bn anchor) (int 3))
    else !acc
  in
  q

(* ------------------------------------------------------------------ *)

let check_value = Util.check_value

(* Differential: rewriter order vs enumerated order vs every enumerated
   order against the reference evaluator, at 1/2/4 domains. *)
let diff_prop g =
  let tables, _, _ = g in
  let cat = mk_catalog tables in
  let q = build_query g in
  let reference = Eval.run cat q in
  let all_orders =
    with_domains 1 (fun () ->
        Joinorder.orders ~limit:8 cat (Planner.plan ~force:Plan.Hash ~cat q))
  in
  List.iter
    (fun d ->
      with_domains d (fun () ->
          let p_rw = Planner.plan ~force:Plan.Hash ~cat q in
          let p_en = Planner.plan ~cat q in
          check_value "rewriter order" reference (Exec.run cat p_rw);
          check_value "enumerated order" reference (Exec.run cat p_en);
          List.iteri
            (fun i o ->
              check_value
                (Printf.sprintf "order %d (d=%d)" i d)
                reference (Exec.run cat o))
            all_orders))
    [ 1; 2; 4 ];
  true

(* ------------------------------------------------------------------ *)
(* Deterministic fixtures. *)

(* Chain T0 - T1 - T2 with skewed sizes and a selective filter on the
   last relation: reordering must win on estimated cost, and distinct
   orders must have distinct fingerprints. *)
let chain_fixture () =
  let rows n = List.init n (fun i -> (i, i)) in
  let cat = mk_catalog [ rows 32; rows 32; rows 32 ] in
  let q =
    select "f"
      (join ~x:"x" ~y:"y"
         (eq (var "x" $. an 1) (var "y" $. an 2))
         (join ~x:"x" ~y:"y"
            (eq (var "x" $. an 0) (var "y" $. an 1))
            (table (tn 0)) (table (tn 1)))
         (table (tn 2)))
      (lt (var "f" $. bn 2) (int 4))
  in
  (cat, q)

let test_fingerprints_distinct () =
  let cat, q = chain_fixture () in
  let p = Planner.plan ~force:Plan.Hash ~cat q in
  let orders = Joinorder.orders cat p in
  Alcotest.(check bool) "several orders" true (List.length orders >= 3);
  (* pairwise structurally distinct, and fingerprints separate them *)
  let rec pairs = function
    | [] -> ()
    | o :: rest ->
      List.iter
        (fun o' ->
          Alcotest.(check bool) "orders differ" false (Plan.equal o o'))
        rest;
      pairs rest
  in
  pairs orders;
  let fps = List.map Plan.fingerprint orders in
  Alcotest.(check int) "fingerprints distinct"
    (List.length orders)
    (List.length (List.sort_uniq String.compare fps))

(* [orders] replaces the region inside the whole plan: a projection
   written over the chain stays on top of every order, and every order
   returns the projected result. *)
let test_orders_in_place () =
  let cat, q = chain_fixture () in
  let q = map_ "r" q (var "r" $. an 0) in
  let reference = Eval.run cat q in
  let orders = Joinorder.orders cat (Planner.plan ~force:Plan.Hash ~cat q) in
  Alcotest.(check bool) "several orders" true (List.length orders >= 3);
  List.iteri
    (fun i o ->
      (match o with
       | Plan.MapOp _ -> ()
       | o -> Alcotest.failf "order %d lost its projection: %s" i (Plan.node_label o));
      check_value (Printf.sprintf "order %d" i) reference (Exec.run cat o))
    orders

let test_reorder_wins () =
  let cat, q = chain_fixture () in
  let p_en = Planner.plan ~cat q in
  let report = !Joinorder.last_report in
  Alcotest.(check bool) "one region" true (List.length report = 1);
  let r = List.hd report in
  Alcotest.(check bool) "considered some plans" true (r.Joinorder.considered > 0);
  Alcotest.(check bool) "pruned some plans" true (r.Joinorder.pruned > 0);
  Alcotest.(check bool) "chosen no costlier than rewriter" true
    (r.Joinorder.chosen_cost <= r.Joinorder.rewriter_cost);
  Alcotest.(check bool) "reordered" true r.Joinorder.reordered;
  Alcotest.(check string) "fingerprint surfaced" (Plan.fingerprint p_en)
    r.Joinorder.chosen_fingerprint;
  (* and the reorder is results-invisible *)
  let p_rw = Planner.plan ~force:Plan.Hash ~cat q in
  Alcotest.(check bool) "fingerprints differ" false
    (String.equal (Plan.fingerprint p_rw) (Plan.fingerprint p_en));
  check_value "same result" (Exec.run cat p_rw) (Exec.run cat p_en)

(* Past the DP's ten relations the region keeps its written order.  An
   11-relation chain with a selective filter on its last-written
   relation, which the DP would reorder if it were smaller, is reported
   with nothing considered and runs as written.  At 300 rows per relation
   the two-domain plans take parallel policies. *)
let test_written_order_past_dp () =
  let k = 11 and n = 300 in
  let cat = mk_catalog (List.init k (fun _ -> List.init n (fun j -> (j, j)))) in
  let leaf i =
    if i = k - 1 then
      select "s" (table (tn i)) (lt (var "s" $. bn i) (int (n / 8)))
    else table (tn i)
  in
  let q = ref (leaf 0) in
  for i = 1 to k - 1 do
    q :=
      join ~x:"x" ~y:"y" (eq (var "x" $. an (i - 1)) (var "y" $. an i)) !q
        (leaf i)
  done;
  let q = !q in
  let reference = Eval.run cat q in
  List.iter
    (fun d ->
      with_domains d (fun () ->
          let p_en = Planner.plan ~cat q in
          (match !Joinorder.last_report with
           | [ r ] ->
             Alcotest.(check int) "eleven relations" k
               (List.length r.Joinorder.relations);
             Alcotest.(check int) "nothing considered" 0 r.Joinorder.considered;
             Alcotest.(check bool) "not reordered" false r.Joinorder.reordered;
             Alcotest.(check string) "written order kept"
               r.Joinorder.rewriter_fingerprint r.Joinorder.chosen_fingerprint
           | rs -> Alcotest.failf "expected one region, got %d" (List.length rs));
          check_value (Printf.sprintf "written order (d=%d)" d) reference
            (Exec.run cat p_en)))
    [ 1; 2 ]

let test_plancache_discipline () =
  let cat, q = chain_fixture () in
  Plancache.clear ();
  let derive () = Planner.plan ~cat q in
  let p1, hit1 = Plancache.find_or_derive cat "joinorder-q" ~derive in
  let p2, hit2 = Plancache.find_or_derive cat "joinorder-q" ~derive in
  Alcotest.(check bool) "first is a miss" false hit1;
  Alcotest.(check bool) "second is a hit" true hit2;
  Alcotest.(check bool) "cache returns the enumerated plan" true
    (Plan.equal p1 p2);
  Alcotest.(check string) "enumerated fingerprint cached"
    (Plan.fingerprint (derive ()))
    (Plan.fingerprint p2)

(* Selection placement: the enumeration applies a selection at the
   earliest node that has its attributes, so a selection written above a
   join lands on its leaf. *)
let test_selection_on_leaf () =
  let rows n = List.init n (fun i -> (i, i)) in
  let cat = mk_catalog [ rows 40; rows 40 ] in
  let stats = Stats.cached cat in
  (* deliberately bad hand-written plan: filter unpushed, nested loops *)
  let raw =
    Plan.Filter
      { morsel = false;
        var = "f";
        pred = lt (var "f" $. bn 0) (int 2);
        input =
          Plan.JoinOp
            {
              algo = Plan.Nested_loop;
              kind = Expr.Inner;
              xvar = "x";
              yvar = "y";
              keys = [ (var "x" $. an 0, var "y" $. an 1) ];
              residual = Expr.true_;
              left = Plan.Scan (tn 0);
              right = Plan.Scan (tn 1);
            };
      }
  in
  let p = Joinorder.optimize ~stats cat raw in
  let join = ref None in
  Plan.iter_nodes
    (fun n ->
      match n with
      | Plan.JoinOp { kind = Expr.Inner; _ } when !join = None -> join := Some n
      | _ -> ())
    p;
  let leaf_filtered = function
    | Plan.Filter { input = Plan.Scan t; _ } -> String.equal t (tn 0)
    | _ -> false
  in
  let pushed =
    match !join with
    | Some (Plan.JoinOp { left; right; _ }) ->
      leaf_filtered left || leaf_filtered right
    | _ -> false
  in
  Alcotest.(check bool) "selection pushed to the leaf" true pushed;
  check_value "placed plan result unchanged" (Exec.run cat raw) (Exec.run cat p)

let () =
  Alcotest.run "joinorder"
    [
      ( "differential",
        [
          Util.qcheck ~count:25 "every enumerated order bit-identical at 1/2/4 domains"
            (QCheck.make ~print:(fun g -> Pretty.to_string (build_query g)) gen_graph)
            diff_prop;
        ] );
      ( "enumeration",
        [
          Alcotest.test_case "distinct orders have distinct fingerprints" `Quick
            test_fingerprints_distinct;
          Alcotest.test_case "orders replace the region in place" `Quick
            test_orders_in_place;
          Alcotest.test_case "chain reorder wins and is surfaced" `Quick
            test_reorder_wins;
          Alcotest.test_case "written order kept past the DP limit" `Quick
            test_written_order_past_dp;
          Alcotest.test_case "plan cache serves enumerated plans" `Quick
            test_plancache_discipline;
        ] );
      ( "placement",
        [
          Alcotest.test_case "selection lands on its leaf" `Quick
            test_selection_on_leaf;
        ] );
    ]
