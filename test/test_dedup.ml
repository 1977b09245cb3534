(* Where the executor deduplicates (DESIGN.md section 8).

   Every plan node's rows are duplicate-free; an operator runs a hash-set
   dedup only when it can create duplicates from duplicate-free inputs
   and the plan cannot prove its rows distinct, and the root defers to
   [Exec.run]'s [Value.set].  For each plan below:

   - its value equals [Eval.run] of the ADL it implements;
   - [Exec.rows] of every node is duplicate-free;
   - [Profile.run]'s root [actual_rows] is the size of the result.

   The first group are shapes that must keep their dedup, where the
   operator can emit the same row twice, and a random property over
   every key rule on tables whose oids are sometimes shared.  The second
   group are the paper's queries whose dedups the executor skips:
   unnests of oid-keyed extents (EQ4, EQ9) and member joins keyed on the
   element itself (EQ6, EQ9). *)

open Njq_adl
open Dsl
module Gen = Njq_workload.Generator
module Queries = Njq_workload.Queries
module Strategy = Njq_core.Strategy
module Plan = Njq_engine.Plan
module Exec = Njq_engine.Exec
module Planner = Njq_engine.Planner
module Profile = Njq_engine.Profile

let check_plan name cat ~adl plan =
  let result = Exec.run cat plan in
  Alcotest.check Util.value (name ^ ": value = Eval") (Eval.run cat adl) result;
  Plan.iter_nodes
    (fun node ->
      let rows = Exec.rows cat node in
      Alcotest.(check int)
        (Printf.sprintf "%s: %s rows are distinct" name (Plan.node_label node))
        (List.length rows)
        (Value.set_size (Value.set rows)))
    plan;
  let _, root = Profile.run cat plan in
  Alcotest.(check int) (name ^ ": root actual_rows = result size")
    (Value.set_size result) root.Profile.actual_rows

let row = Value.tuple
let ints ns = Value.set (List.map Value.int ns)

(* ------------------------------------------------------------------ *)
(* Shapes that keep their dedup *)

let set_table_type key =
  Vtype.tuple [ (key, Vtype.TOid); ("s", Vtype.TSet Vtype.TInt) ]

(* Two rows that differ only in the unnested set [s], so unnesting them
   yields the element 2 twice: the rows share an oid, or carry none. *)
let unnest_catalog () =
  let cat = Catalog.create () in
  Catalog.add_table cat ~name:"SHARED" ~row_type:(set_table_type "oid")
    [ row [ ("oid", Value.oid 1); ("s", ints [ 1; 2 ]) ];
      row [ ("oid", Value.oid 1); ("s", ints [ 2; 3 ]) ] ];
  Catalog.add_table cat ~name:"NOOID" ~row_type:(set_table_type "a")
    [ row [ ("a", Value.oid 1); ("s", ints [ 1; 2 ]) ];
      row [ ("a", Value.oid 1); ("s", ints [ 2 ]) ] ];
  cat

let test_unnest_unkeyed () =
  let cat = unnest_catalog () in
  Alcotest.(check bool) "shared oids are no key" false
    (Catalog.oid_key cat "SHARED");
  Alcotest.(check bool) "no oids are no key" false (Catalog.oid_key cat "NOOID");
  List.iter
    (fun table ->
      let plan =
        Plan.MapOp
          { morsel = false; var = "t";
            body = var "t" $. "s";
            input = Plan.UnnestOp ("s", Plan.Scan table) }
      in
      let adl = map_ "t" (unnest "s" (Dsl.table table)) (var "t" $. "s") in
      check_plan ("unnest " ^ table) cat ~adl plan)
    [ "SHARED"; "NOOID" ]

(* An extension that overwrites the key attribute ends the key: after
   the pointer-based materialize into [oid] (a map over a compiled deref),
   both rows carry the same referenced object as their oid and differ only
   in [s]. *)
let test_unnest_after_key_overwrite () =
  let cat = Catalog.create () in
  Catalog.add_table cat ~name:"OBJ"
    ~row_type:(Vtype.tuple [ ("oid", Vtype.TOid); ("tag", Vtype.TString) ])
    [ row [ ("oid", Value.oid 5); ("tag", Value.string "x") ] ];
  Catalog.add_table cat ~name:"REF"
    ~row_type:
      (Vtype.tuple
         [ ("oid", Vtype.TOid); ("ref", Vtype.TRef "OBJ");
           ("s", Vtype.TSet Vtype.TInt) ])
    [ row [ ("oid", Value.oid 1); ("ref", Value.oid 5); ("s", ints [ 1; 2 ]) ];
      row [ ("oid", Value.oid 2); ("ref", Value.oid 5); ("s", ints [ 2 ]) ] ];
  Alcotest.(check bool) "REF is keyed on oid" true (Catalog.oid_key cat "REF");
  let into_oid = except (var "r") [ ("oid", Expr.Deref ("OBJ", var "r" $. "ref")) ] in
  let plan =
    Plan.MapOp
      { morsel = false; var = "t";
        body = var "t" $. "s";
        input =
          Plan.UnnestOp
            ( "s",
              Plan.MapOp
                { morsel = false; var = "r"; body = into_oid;
                  input = Plan.Scan "REF" } ) }
  in
  let adl =
    map_ "t" (unnest "s" (map_ "r" (table "REF") into_oid)) (var "t" $. "s")
  in
  check_plan "unnest after a deref into oid" cat ~adl plan

(* A member join whose element key is not the element: the two supply
   entries of delivery 1 name the same part, so their probes hit the same
   build row. *)
let member_catalog () =
  let cat = Catalog.create () in
  let supply part quantity =
    row [ ("part", Value.oid part); ("quantity", Value.int quantity) ]
  in
  Catalog.add_table cat ~name:"D"
    ~row_type:
      (Vtype.tuple
         [ ("oid", Vtype.TOid);
           ("supply",
            Vtype.TSet
              (Vtype.tuple [ ("part", Vtype.TOid); ("quantity", Vtype.TInt) ])) ])
    [ row [ ("oid", Value.oid 1); ("supply", Value.set [ supply 5 1; supply 5 2 ]) ];
      row [ ("oid", Value.oid 2); ("supply", Value.set [ supply 6 1 ]) ] ];
  Catalog.add_table cat ~name:"P"
    ~row_type:(Vtype.tuple [ ("poid", Vtype.TOid); ("color", Vtype.TString) ])
    [ row [ ("poid", Value.oid 5); ("color", Value.string "red") ];
      row [ ("poid", Value.oid 6); ("color", Value.string "blue") ] ];
  cat

let supplied_by = exists "u" (var "d" $. "supply") (eq (var "u" $. "part") (var "p" $. "poid"))

let member_join kind =
  Plan.MemberJoin
    { kind; xvar = "d"; yvar = "p"; xset = var "d" $. "supply"; elem_var = "u";
      elem_key = var "u" $. "part"; ykey = var "p" $. "poid";
      left = Plan.Scan "D"; right = Plan.Build (Plan.Scan "P") }

let test_member_join_non_identity_key () =
  let cat = member_catalog () in
  let body = tuple [ ("o", var "r" $. "oid"); ("c", var "r" $. "color") ] in
  check_plan "member inner join on u.part" cat
    ~adl:(map_ "r" (join ~x:"d" ~y:"p" supplied_by (table "D") (table "P")) body)
    (Plan.MapOp { morsel = false; var = "r"; body; input = member_join Plan.MInner });
  let nest_body = var "p" $. "color" in
  check_plan "member nestjoin on u.part" cat
    ~adl:
      (nestjoin ~x:"d" ~y:"p" ~body:nest_body ~attr:"colors" supplied_by
         (table "D") (table "P"))
    (member_join (Plan.MNest { body = nest_body; attr = "colors" }))

(* A non-injective map and projection below a join: both collapse the
   two red parts, and the join must not see them twice. *)
let test_map_project_below_join () =
  let cat = Util.small_catalog () in
  let colors = Plan.ProjectOp ([ "color" ], Plan.Scan "PART") in
  let tagged =
    Plan.MapOp
      { morsel = false; var = "p";
        body = tuple [ ("pc", var "p" $. "color") ];
        input = Plan.Scan "PART" }
  in
  let plan =
    Plan.JoinOp
      { algo = Plan.Hash; kind = Expr.Inner; xvar = "x"; yvar = "y";
        keys = [ (var "x" $. "pc", var "y" $. "color") ];
        residual = bool true; left = tagged; right = colors }
  in
  let adl =
    join (eq (var "x" $. "pc") (var "y" $. "color"))
      (map_ "p" (table "PART") (tuple [ ("pc", var "p" $. "color") ]))
      (project [ "color" ] (table "PART"))
  in
  check_plan "map and project below a hash join" cat ~adl plan;
  check_plan "product over a projection" cat
    ~adl:(product (project [ "color" ] (table "PART")) (table "SUPPLIER"))
    (Plan.ProductOp (colors, Plan.Scan "SUPPLIER"))

(* ------------------------------------------------------------------ *)
(* Random tables: X(oid, a, c:{int}) with oids drawn from a small range,
   so some tables are keyed on oid and others have rows sharing one, and
   Y(d, e).  Every shape unnests [c] above one operator the key rule
   covers — kept, renamed, ended by an overwrite, or never started (an
   inner join) — and must agree with [Eval] with every node distinct.
   PNHL and the pointer-based materialize (a map over a compiled deref)
   writing into an existing attribute ([oid], [a]) can merge rows
   themselves, so they are held to the same check. *)

let x_row_type =
  Vtype.tuple [ ("oid", Vtype.TOid); ("a", Vtype.TInt); ("c", Vtype.TSet Vtype.TInt) ]

let gen_x_row =
  QCheck.Gen.(
    map3
      (fun o a c ->
        row [ ("oid", Value.oid o); ("a", Value.int a); ("c", ints c) ])
      (int_range 0 3) (int_range 0 3) Util.gen_int_set)

let gen_tables =
  QCheck.Gen.(
    pair (list_size (int_range 0 6) gen_x_row)
      (list_size (int_range 0 5) Util.gen_y_row))

let random_catalog (xs, ys) =
  let cat = Catalog.create () in
  Catalog.add_table cat ~name:"X" ~row_type:x_row_type xs;
  Catalog.add_table cat ~name:"Y"
    ~row_type:(Vtype.tuple [ ("d", Vtype.TInt); ("e", Vtype.TInt) ])
    ys;
  cat

let on_a = eq (var "x" $. "a") (var "y" $. "d")
let a_keys = [ (var "x" $. "a", var "y" $. "d") ]
let matched_ys = select "y" (table "Y") (mem (var "y" $. "d") (var "x" $. "c"))

let hash_join kind =
  Plan.JoinOp
    { algo = Plan.Hash; kind; xvar = "x"; yvar = "y"; keys = a_keys;
      residual = bool true; left = Plan.Scan "X"; right = Plan.Scan "Y" }

let pnhl into =
  Plan.Pnhl
    { attr = "c"; elem_key = var "elem"; row_key = var "row" $. "d"; into;
      mem_budget = 2; left = Plan.Scan "X"; right = Plan.Scan "Y" }

(* Each row's own object, written into [into]. *)
let deref_map into =
  let body = except (var "x") [ (into, Expr.Deref ("X", var "x" $. "oid")) ] in
  (Plan.MapOp { morsel = false; var = "x"; body; input = Plan.Scan "X" },
   map_ "x" (table "X") body)

(* (name, plan under the unnest, its ADL) *)
let key_shapes =
  [ ("scan", Plan.Scan "X", table "X");
    ( "filter",
      Plan.Filter
        { morsel = false;
          var = "x"; pred = ge (var "x" $. "a") (int 1); input = Plan.Scan "X" },
      select "x" (table "X") (ge (var "x" $. "a") (int 1)) );
    ( "rename",
      Plan.RenameOp ([ ("oid", "k") ], Plan.Scan "X"),
      Expr.Rename ([ ("oid", "k") ], table "X") );
    ("semijoin", hash_join Expr.Semi, semijoin on_a (table "X") (table "Y"));
    ("antijoin", hash_join Expr.Anti, antijoin on_a (table "X") (table "Y"));
    ( "member semijoin",
      Plan.MemberJoin
        { kind = Plan.MSemi; xvar = "x"; yvar = "y"; xset = var "x" $. "c";
          elem_var = "z"; elem_key = var "z"; ykey = var "y" $. "d";
          left = Plan.Scan "X"; right = Plan.Build (Plan.Scan "Y") },
      semijoin
        (exists "z" (var "x" $. "c") (eq (var "z") (var "y" $. "d")))
        (table "X") (table "Y") );
    ( "nestjoin",
      Plan.NestjoinOp
        { algo = Plan.Hash; xvar = "x"; yvar = "y"; keys = a_keys;
          residual = bool true; body = var "y" $. "e"; attr = "g";
          left = Plan.Scan "X"; right = Plan.Scan "Y" },
      nestjoin ~body:(var "y" $. "e") ~attr:"g" on_a (table "X") (table "Y") );
    ( "pnhl",
      pnhl "m",
      map_ "x" (table "X") (except (var "x") [ ("m", matched_ys) ]) );
    ( "pnhl into oid",
      pnhl "oid",
      map_ "x" (table "X") (except (var "x") [ ("oid", matched_ys) ]) );
    ( "inner join",
      Plan.RenameOp ([ ("oid", "k") ], hash_join Expr.Inner),
      Expr.Rename ([ ("oid", "k") ], join on_a (table "X") (table "Y")) ) ]
  @ List.map
      (fun into ->
        let plan, adl = deref_map into in
        ("deref map into " ^ into, plan, adl))
      [ "obj"; "a"; "oid" ]

let prop_key_shapes =
  Util.qcheck ~count:300 "unnest above every key rule, random oids"
    (QCheck.make gen_tables) (fun tables ->
      let cat = random_catalog tables in
      List.iter
        (fun (name, input, adl) ->
          check_plan ("unnest over " ^ name) cat
            ~adl:(map_ "t" (unnest "c" adl) (var "t" $. "c"))
            (Plan.MapOp
               { morsel = false; var = "t"; body = var "t" $. "c";
                 input = Plan.UnnestOp ("c", input) }))
        key_shapes;
      true)

(* ------------------------------------------------------------------ *)
(* The paper's queries whose dedups are skipped *)

let rec plan_exists f (p : Plan.t) = f p || List.exists (plan_exists f) (Plan.children p)

let keyed_unnest cat = function
  | Plan.UnnestOp (_, Plan.Scan t) -> Catalog.oid_key cat t
  | _ -> false

let identity_member_join = function
  | Plan.MemberJoin { elem_var; elem_key = Expr.Var v; _ } -> String.equal v elem_var
  | _ -> false

let test_paper_queries () =
  let cat = Gen.catalog (Gen.scaled ~seed:11 64) in
  List.iter
    (fun (id, has_keyed_unnest, has_identity_member) ->
      let q = Queries.find id in
      let adl = Queries.to_adl q in
      let plan = Planner.plan (Strategy.optimize cat adl) in
      Alcotest.(check bool) (id ^ ": unnest of a keyed scan") has_keyed_unnest
        (plan_exists (keyed_unnest cat) plan);
      Alcotest.(check bool) (id ^ ": member join on the element")
        has_identity_member
        (plan_exists identity_member_join plan);
      check_plan id cat ~adl plan)
    [ ("EQ4", true, false); ("EQ6", false, true); ("EQ9", true, true) ]

(* The oid key is decided per table when the oid index is built, and
   [set_rows] decides it afresh. *)
let test_oid_key_reset () =
  let cat = unnest_catalog () in
  Alcotest.(check bool) "shared oids" false (Catalog.oid_key cat "SHARED");
  Catalog.set_rows cat "SHARED"
    [ row [ ("oid", Value.oid 1); ("s", ints [ 1; 2 ]) ];
      row [ ("oid", Value.oid 2); ("s", ints [ 2; 3 ]) ] ];
  Alcotest.(check bool) "distinct oids after set_rows" true
    (Catalog.oid_key cat "SHARED")

let () =
  Alcotest.run "dedup"
    [ ( "keeps its dedup",
        [ Alcotest.test_case "unnest without an oid key" `Quick test_unnest_unkeyed;
          Alcotest.test_case "unnest after the key is overwritten" `Quick
            test_unnest_after_key_overwrite;
          Alcotest.test_case "member join on a non-identity key" `Quick
            test_member_join_non_identity_key;
          Alcotest.test_case "map and project below a join" `Quick
            test_map_project_below_join;
          prop_key_shapes ] );
      ( "skips its dedup",
        [ Alcotest.test_case "EQ4, EQ6 and EQ9" `Quick test_paper_queries;
          Alcotest.test_case "oid key follows set_rows" `Quick test_oid_key_reset ] ) ]
