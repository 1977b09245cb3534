(* Tests for base-table indexes and the access-path layer (ISSUE 5):

   - Catalog index mechanics: creation/validation, point and range
     lookups in canonical row order, invalidation + lazy rebuild on
     [set_rows], multi-attribute keys.
   - Planner selection: with statistics, selective sargable predicates
     plan as IndexScan / IndexJoin (including through the planner's own
     rename over the inner scan), and the paths stay off when forced,
     disabled, or not cheaper.
   - Differential properties: IndexScan is observationally equal to
     Filter(Scan) — same rows, same order — and IndexJoin to the
     hash/nested-loop join it replaces, at 1/2/4 domains.
   - Plancache: hit/miss accounting, LRU eviction, text normalization,
     catalog-epoch invalidation, and the pool size and memory budget in
     the key. *)

open Njq_adl
module Metrics = Njq_obs.Metrics
open Dsl
module Gen = Njq_workload.Generator
module Strategy = Njq_core.Strategy
module Plan = Njq_engine.Plan
module Exec = Njq_engine.Exec
module Planner = Njq_engine.Planner
module Plancache = Njq_engine.Plancache
module Pool = Njq_engine.Pool

let row_list = Alcotest.(list Util.value)

let with_domains k f =
  let prev = Pool.domains () in
  Pool.set_domains k;
  Fun.protect ~finally:(fun () -> Pool.set_domains prev) f

(* Both plans must produce the same ordered row list. *)
let check_plans_equal name cat reference candidate =
  Alcotest.check row_list name (Exec.rows cat reference)
    (Exec.rows cat candidate)

(* ------------------------------------------------------------------ *)
(* Catalog index mechanics *)

let get_index cat name =
  match Catalog.find_index cat name with
  | Some idx -> idx
  | None -> Alcotest.failf "index %s not found" name

let test_create_and_lookup () =
  let cat = Util.small_catalog () in
  let name =
    Catalog.create_index cat ~table:"PART" ~kind:Catalog.Hash_index
      ~attrs:[ "color" ] ()
  in
  Alcotest.(check string) "derived name" "PART_color_hash" name;
  Alcotest.(check bool) "has_indexes" true (Catalog.has_indexes cat);
  let idx = get_index cat name in
  let reds = Catalog.index_lookup_eq cat idx [| Value.string "red" |] in
  (* Exactly the rows a filtered scan returns, in the same (canonical)
     order. *)
  let scan_reds =
    List.filter
      (fun r -> Value.equal (Value.field r "color") (Value.string "red"))
      (Catalog.rows cat "PART")
  in
  Alcotest.check row_list "matches filtered scan" scan_reds reds;
  Alcotest.check row_list "miss is empty" []
    (Catalog.index_lookup_eq cat idx [| Value.string "mauve" |])

let test_create_validation () =
  let cat = Util.small_catalog () in
  let expect_invalid what f =
    match f () with
    | (_ : string) -> Alcotest.failf "%s: expected Invalid_argument" what
    | exception Invalid_argument _ -> ()
  in
  (match
     Catalog.create_index cat ~table:"NOPE" ~kind:Catalog.Hash_index
       ~attrs:[ "a" ] ()
   with
   | (_ : string) -> Alcotest.fail "unknown table accepted"
   | exception Catalog.Unknown_table t ->
     Alcotest.(check string) "unknown table" "NOPE" t);
  expect_invalid "unknown attr" (fun () ->
      Catalog.create_index cat ~table:"PART" ~kind:Catalog.Hash_index
        ~attrs:[ "nope" ] ());
  expect_invalid "empty attrs" (fun () ->
      Catalog.create_index cat ~table:"PART" ~kind:Catalog.Hash_index ~attrs:[]
        ());
  expect_invalid "duplicate attrs" (fun () ->
      Catalog.create_index cat ~table:"PART" ~kind:Catalog.Hash_index
        ~attrs:[ "color"; "color" ] ())

let test_range_lookup () =
  let cat = Util.small_catalog () in
  let name =
    Catalog.create_index cat ~table:"PART" ~kind:Catalog.Sorted_index
      ~attrs:[ "price" ] ()
  in
  let idx = get_index cat name in
  let prices lo hi =
    List.filter
      (fun r ->
        let p = Value.field r "price" in
        Value.compare p (Value.int lo) >= 0
        && Value.compare p (Value.int hi) <= 0)
      (Catalog.rows cat "PART")
  in
  (* PART prices are 10, 5, 25, 50. *)
  Alcotest.check row_list "closed range [5,25]" (prices 5 25)
    (Catalog.index_lookup_range cat idx
       ~lo:(Some (Value.int 5, true))
       ~hi:(Some (Value.int 25, true)));
  Alcotest.check row_list "open lower bound (5,25]" (prices 6 25)
    (Catalog.index_lookup_range cat idx
       ~lo:(Some (Value.int 5, false))
       ~hi:(Some (Value.int 25, true)));
  Alcotest.check row_list "unbounded below" (prices min_int 10)
    (Catalog.index_lookup_range cat idx ~lo:None
       ~hi:(Some (Value.int 10, true)));
  Alcotest.check row_list "unbounded above" (prices 25 max_int)
    (Catalog.index_lookup_range cat idx
       ~lo:(Some (Value.int 25, true))
       ~hi:None);
  Alcotest.check row_list "unbounded both = whole extent"
    (Catalog.rows cat "PART")
    (Catalog.index_lookup_range cat idx ~lo:None ~hi:None)

let test_multi_attr_and_invalidation () =
  let cat = Util.small_catalog () in
  let name =
    Catalog.create_index cat ~table:"PART" ~kind:Catalog.Hash_index
      ~attrs:[ "color"; "price" ] ()
  in
  let idx = get_index cat name in
  let hit = Catalog.index_lookup_eq cat idx [| Value.string "red"; Value.int 25 |] in
  Alcotest.(check int) "composite key hit" 1 (List.length hit);
  (* Arity is checked. *)
  (match Catalog.index_lookup_eq cat idx [| Value.string "red" |] with
   | _ -> Alcotest.fail "arity mismatch accepted"
   | exception Invalid_argument _ -> ());
  (* Replacing the extent invalidates; the next lookup sees the new rows
     (lazy rebuild), and the epoch moved. *)
  let epoch0 = Catalog.epoch cat in
  Catalog.set_rows cat "PART"
    [ Util.part ~oid:7 ~pname:"axle" ~price:25 ~color:"red" ];
  Alcotest.(check bool) "epoch bumped" true (Catalog.epoch cat > epoch0);
  let hit' = Catalog.index_lookup_eq cat idx [| Value.string "red"; Value.int 25 |] in
  Alcotest.check row_list "rebuilt over new rows"
    [ Util.part ~oid:7 ~pname:"axle" ~price:25 ~color:"red" ]
    hit'

(* ------------------------------------------------------------------ *)
(* Planner selection *)

let workload_cat n = Gen.catalog { (Gen.scaled ~seed:11 n) with Gen.dangling_rate = 0.0 }

let test_planner_picks_point () =
  let cat = workload_cat 128 in
  ignore
    (Catalog.create_index cat ~table:"PART" ~kind:Catalog.Hash_index
       ~attrs:[ "color" ] ());
  let q = select "p" (table "PART") (eq (var "p" $. "color") (str "red")) in
  (match Planner.plan ~cat q with
   | Plan.IndexScan { lookup = Plan.LPoint _; residual; _ } ->
     Alcotest.(check bool) "no residual" true (Expr.is_true residual)
   | p -> Alcotest.failf "expected IndexScan, got %a" Plan.pp p);
  (* The residual keeps conjuncts the index cannot answer. *)
  let q2 =
    select "p" (table "PART")
      (eq (var "p" $. "color") (str "red") &&& gt (var "p" $. "price") (int 100))
  in
  (match Planner.plan ~cat q2 with
   | Plan.IndexScan { residual; _ } ->
     Alcotest.(check bool) "residual kept" false (Expr.is_true residual)
   | p -> Alcotest.failf "expected IndexScan with residual, got %a" Plan.pp p);
  (* A forced algorithm keeps the scan plan. *)
  match Planner.plan ~force:Plan.Hash ~cat q with
  | Plan.Filter { input = Plan.Scan "PART"; _ } -> ()
  | p -> Alcotest.failf "forced algo must skip access paths, got %a" Plan.pp p

let test_planner_picks_range () =
  let cat = workload_cat 128 in
  ignore
    (Catalog.create_index cat ~table:"PART" ~kind:Catalog.Sorted_index
       ~attrs:[ "price" ] ());
  let q =
    select "p" (table "PART")
      (gt (var "p" $. "price") (int 10) &&& lt (var "p" $. "price") (int 40))
  in
  match Planner.plan ~cat q with
  | Plan.IndexScan { lookup = Plan.LRange { lo = Some _; hi = Some _ }; _ } -> ()
  | p -> Alcotest.failf "expected range IndexScan, got %a" Plan.pp p

let test_planner_picks_index_join_through_rename () =
  let cat = workload_cat 128 in
  ignore
    (Catalog.create_index cat ~table:"SUPPLIER" ~kind:Catalog.Hash_index
       ~attrs:[ "oid" ] ());
  (* Both extents carry "oid", so the planner renames the inner scan; the
     access path must still fire and absorb the rename. *)
  let adl, _ =
    Njq_oosql.Translate.query_string Njq_workload.Queries.schema
      {| select d.date from d in DELIVERY, s in SUPPLIER
         where d.supplier = s.oid |}
  in
  let final = Strategy.optimize cat adl in
  let rec find_idx_join p =
    match p with
    | Plan.IndexJoin { rename; _ } -> Some rename
    | _ -> List.find_map find_idx_join (Plan.children p)
  in
  let plan = Planner.plan ~cat final in
  match find_idx_join plan with
  | Some rename ->
    Alcotest.(check bool) "rename absorbed" true (rename <> [])
  | None -> Alcotest.failf "expected IndexJoin, got %a" Plan.pp plan

let test_unselective_keeps_scan () =
  let cat = workload_cat 128 in
  ignore
    (Catalog.create_index cat ~table:"PART" ~kind:Catalog.Sorted_index
       ~attrs:[ "price" ] ());
  (* price >= 0 matches everything: the cost model must keep the scan. *)
  let q = select "p" (table "PART") (ge (var "p" $. "price") (int 0)) in
  match Planner.plan ~cat q with
  | Plan.Filter _ -> ()
  | p -> Alcotest.failf "unselective predicate should scan, got %a" Plan.pp p

(* ------------------------------------------------------------------ *)
(* Pointer-based member joins: a member join onto a whole extent keyed on
   "oid" probes the catalog's oid index instead of building a hash table
   (Plan.Oid_index). *)

(* X(xk, c) whose sets mix live oids into P, dangling oids and values that
   are not oids at all; P(oid, name) keyed on "oid" unless [p_rows] says
   otherwise. *)
let pointer_catalog ?(p_rows = [ (1, "a"); (2, "b"); (3, "c"); (4, "d") ]) () =
  let cat = Catalog.create () in
  let x k c = Value.tuple [ ("xk", Value.int k); ("c", Value.set c) ] in
  Catalog.add_table cat ~name:"X"
    ~row_type:(Vtype.tuple [ ("xk", Vtype.TInt); ("c", Vtype.TSet Vtype.TAny) ])
    [ x 0 [ Value.oid 1; Value.oid 2 ];
      x 1 [ Value.oid 2; Value.oid 99 ];
      x 2 [ Value.int 3; Value.string "c"; Value.oid 4 ];
      x 3 [];
      x 4 [ Value.oid 77; Value.int 1 ] ];
  Catalog.add_table cat ~name:"P"
    ~row_type:(Vtype.tuple [ ("oid", Vtype.TOid); ("name", Vtype.TString) ])
    (List.map
       (fun (o, n) -> Value.tuple [ ("oid", Value.oid o); ("name", Value.string n) ])
       p_rows);
  cat

let on_oid = exists "z" (var "x" $. "c") (eq (var "z") (var "y" $. "oid"))

(* The four member-join kinds over X and P, as ADL. *)
let pointer_queries =
  [ ("semijoin", semijoin on_oid (table "X") (table "P"));
    ("antijoin", antijoin on_oid (table "X") (table "P"));
    ("join", join on_oid (table "X") (table "P"));
    ( "nestjoin",
      nestjoin ~body:(var "y" $. "name") ~attr:"g" on_oid (table "X") (table "P") ) ]

let member_right p =
  match p with
  | Plan.MemberJoin { right; _ } -> Some right
  | _ -> None

let test_pointer_member_joins () =
  let cat = pointer_catalog () in
  List.iter
    (fun (name, e) ->
      let planned = Planner.plan ~cat e in
      (match member_right planned with
       | Some (Plan.Oid_index "P") -> ()
       | _ -> Alcotest.failf "%s: expected a pointer join, got %a" name Plan.pp planned);
      Alcotest.check Util.value name (Eval.run cat e) (Exec.run cat planned))
    pointer_queries

let test_pointer_ticks () =
  let cat = pointer_catalog () in
  let elements =
    List.fold_left
      (fun n row -> n + Value.set_size (Value.field row "c"))
      0 (Catalog.rows cat "X")
  in
  List.iter
    (fun name ->
      let planned = Planner.plan ~cat (List.assoc name pointer_queries) in
      let _, { Metrics.work; _ } = Metrics.measure (fun () -> Exec.run cat planned) in
      let count k = Option.value ~default:0 (List.assoc_opt k work) in
      Alcotest.(check int) (name ^ ": no hash build") 0 (count "hash_build");
      Alcotest.(check int) (name ^ ": no hash probe") 0 (count "hash_probe");
      Alcotest.(check int) (name ^ ": one oid lookup per element") elements
        (count "oid_lookup"))
    [ "join"; "nestjoin" ]

let test_pointer_needs_oid_key () =
  (* Two rows share oid 2; then a row without an oid: "oid" is no key of
     P, so the index cannot stand in for the build. *)
  let shared = [ (1, "a"); (2, "b"); (2, "b2"); (4, "d") ] in
  let cat = pointer_catalog ~p_rows:shared () in
  let missing = pointer_catalog () in
  Catalog.set_rows missing "P"
    (Value.tuple [ ("oid", Value.VNull); ("name", Value.string "e") ]
     :: Catalog.rows missing "P");
  List.iter
    (fun (what, cat) ->
      List.iter
        (fun (name, e) ->
          let planned = Planner.plan ~cat e in
          (match member_right planned with
           | Some (Plan.Build (Plan.Scan "P")) -> ()
           | _ ->
             Alcotest.failf "%s over %s oids: expected the hash build, got %a"
               name what Plan.pp planned);
          Alcotest.check Util.value
            (Printf.sprintf "%s over %s oids" name what)
            (Eval.run cat e) (Exec.run cat planned))
        pointer_queries)
    [ ("shared", cat); ("missing", missing) ]

let test_pointer_plan_outlives_oid_key () =
  List.iter
    (fun (name, e) ->
      let cat = pointer_catalog () in
      let planned = Planner.plan ~cat e in
      Alcotest.(check bool) (name ^ ": planned as a pointer join") true
        (member_right planned = Some (Plan.Oid_index "P"));
      (* After planning, P loses its key: oid 2 now names two rows. *)
      Catalog.set_rows cat "P"
        (Value.tuple [ ("oid", Value.oid 2); ("name", Value.string "b2") ]
         :: Catalog.rows cat "P");
      Alcotest.check Util.value (name ^ " after set_rows") (Eval.run cat e)
        (Exec.run cat planned))
    pointer_queries

let test_pointer_respects_switches () =
  let cat = pointer_catalog () in
  let e = List.assoc "nestjoin" pointer_queries in
  let built p =
    match member_right p with Some (Plan.Build _) -> true | _ -> false
  in
  Alcotest.(check bool) "Force keeps the build" true
    (built (Planner.plan ~force:Plan.Hash ~cat e));
  Alcotest.(check bool) "no catalog keeps the build" true (built (Planner.plan e));
  (* A filtered right operand keeps its hash build too. *)
  let filtered =
    semijoin on_oid (table "X")
      (select "p" (table "P") (neq (var "p" $. "name") (str "a")))
  in
  Alcotest.(check bool) "filtered right operand keeps the build" true
    (built (Planner.plan ~cat filtered))

(* ------------------------------------------------------------------ *)
(* Differential properties: random XY databases; the index plans must be
   observationally equal to the scan plans they replace, at 1/2/4
   domains. *)

let indexed_xy_catalog tables =
  let cat = Util.xy_catalog tables in
  let dh =
    Catalog.create_index cat ~table:"Y" ~kind:Catalog.Hash_index
      ~attrs:[ "d" ] ()
  in
  let ds =
    Catalog.create_index cat ~table:"Y" ~kind:Catalog.Sorted_index
      ~attrs:[ "d" ] ()
  in
  (cat, dh, ds)

let sorted_rows rs = List.sort Value.compare rs

let prop_index_scan_differential =
  Util.qcheck ~count:150 "IndexScan matches Filter(Scan) in both point and range form"
    QCheck.(
      make
        Gen.(pair Util.gen_xy_tables (int_range 0 4))
        ~print:(fun ((xs, ys), k) ->
          Fmt.str "k=%d@.X=%a@.Y=%a" k (Fmt.Dump.list Value.pp) xs
            (Fmt.Dump.list Value.pp) ys))
    (fun (tables, k) ->
      let cat, dh, ds = indexed_xy_catalog tables in
      let pred = eq (var "y" $. "d") (int k) in
      let scan = Plan.Filter { morsel = false;
                               var = "y"; pred; input = Plan.Scan "Y" } in
      let point =
        Plan.IndexScan
          { table = "Y"; index = dh; var = "y"; lookup = Plan.LPoint [ int k ];
            residual = Expr.true_; rename = [] }
      in
      let range =
        Plan.IndexScan
          { table = "Y"; index = ds; var = "y";
            lookup =
              Plan.LRange
                { lo = Some (int k, true); hi = Some (int k, true) };
            residual = Expr.true_; rename = [] }
      in
      let want = Exec.rows cat scan in
      List.for_all
        (fun candidate ->
          let got = Exec.rows cat candidate in
          List.length got = List.length want
          && List.for_all2 Value.equal want got)
        [ point; range ])

let prop_index_join_differential =
  Util.qcheck ~count:120 "IndexJoin matches hash join in both row set and semi/anti order"
    QCheck.(
      make
        Gen.(pair Util.gen_xy_tables (oneofl [ Expr.Inner; Expr.Semi; Expr.Anti ]))
        ~print:(fun ((xs, ys), kind) ->
          Fmt.str "kind=%s@.X=%a@.Y=%a"
            (match kind with
             | Expr.Inner -> "inner"
             | Expr.Semi -> "semi"
             | Expr.Anti -> "anti"
             | Expr.LeftOuter _ -> "outer")
            (Fmt.Dump.list Value.pp) xs (Fmt.Dump.list Value.pp) ys))
    (fun (tables, kind) ->
      let cat, dh, _ = indexed_xy_catalog tables in
      let keys = [ (var "x" $. "a", var "y" $. "d") ] in
      let hash =
        Plan.JoinOp
          { algo = Plan.Hash; kind; xvar = "x"; yvar = "y"; keys;
            residual = Expr.true_; left = Plan.Scan "X"; right = Plan.Scan "Y" }
      in
      let idx =
        Plan.IndexJoin
          { kind; xvar = "x"; yvar = "y"; table = "Y"; index = dh;
            keys = [ var "x" $. "a" ]; residual = Expr.true_; rename = [];
            left = Plan.Scan "X" }
      in
      let want = Exec.rows cat hash in
      (* Semi/Anti preserve the left order exactly; Inner row order is
         probe-driven and may legitimately differ between the two
         algorithms, so it is compared as a sorted list. *)
      let normalize =
        match kind with
        | Expr.Inner -> sorted_rows
        | _ -> Fun.id
      in
      let want = normalize want in
      let got = normalize (Exec.rows cat idx) in
      List.length got = List.length want && List.for_all2 Value.equal want got)

let test_differential_across_domains () =
  let tables =
    ( [ Util.row [ ("a", Value.int 1); ("c", Value.set []) ];
        Util.row [ ("a", Value.int 2); ("c", Value.set [ Value.int 1 ]) ];
        Util.row [ ("a", Value.int 3); ("c", Value.set []) ] ],
      List.init 9 (fun i ->
          Util.row [ ("d", Value.int (i mod 4)); ("e", Value.int i) ]) )
  in
  let cat, dh, _ = indexed_xy_catalog tables in
  let scan =
    Plan.Filter
      { morsel = false;
        var = "y"; pred = eq (var "y" $. "d") (int 2); input = Plan.Scan "Y" }
  in
  let point =
    Plan.IndexScan
      { table = "Y"; index = dh; var = "y"; lookup = Plan.LPoint [ int 2 ];
        residual = Expr.true_; rename = [] }
  in
  let semi =
    Plan.JoinOp
      { algo = Plan.Hash; kind = Expr.Semi; xvar = "x"; yvar = "y";
        keys = [ (var "x" $. "a", var "y" $. "d") ]; residual = Expr.true_;
        left = Plan.Scan "X"; right = Plan.Scan "Y" }
  in
  let isemi =
    Plan.IndexJoin
      { kind = Expr.Semi; xvar = "x"; yvar = "y"; table = "Y"; index = dh;
        keys = [ var "x" $. "a" ]; residual = Expr.true_; rename = [];
        left = Plan.Scan "X" }
  in
  List.iter
    (fun k ->
      with_domains k (fun () ->
          check_plans_equal (Printf.sprintf "point at %d domains" k) cat scan
            point;
          check_plans_equal (Printf.sprintf "semi at %d domains" k) cat semi
            isemi))
    [ 1; 2; 4 ]

(* ------------------------------------------------------------------ *)
(* Plan cache *)

let dummy_plan n = Plan.Materialized [ Value.int n ]

let test_plancache_hit_miss () =
  Plancache.clear ();
  let cat = Util.small_catalog () in
  let h0 = Plancache.hits () and m0 = Plancache.misses () in
  let derived = ref 0 in
  let derive n () = incr derived; dummy_plan n in
  let p1, hit1 = Plancache.find_or_derive cat "select 1" ~derive:(derive 1) in
  let p2, hit2 = Plancache.find_or_derive cat "select 1" ~derive:(derive 99) in
  Alcotest.(check int) "derived once" 1 !derived;
  Alcotest.(check (pair bool bool)) "miss, then hit" (false, true) (hit1, hit2);
  Alcotest.(check bool) "hit returns the stored plan" true (p1 == p2);
  Alcotest.(check int) "one hit" 1 (Plancache.hits () - h0);
  Alcotest.(check int) "one miss" 1 (Plancache.misses () - m0);
  (* Whitespace-insensitive keys. *)
  let p3, _ =
    Plancache.find_or_derive cat "  select \n  1  " ~derive:(derive 99)
  in
  Alcotest.(check bool) "normalized text hits" true (p1 == p3);
  (* A different options string is a different prepared statement. *)
  ignore (Plancache.find_or_derive cat ~options:"other" "select 1" ~derive:(derive 2));
  Alcotest.(check int) "options split the key" 2 !derived

let test_plancache_lru_eviction () =
  Plancache.clear ();
  let cat = Util.small_catalog () in
  let prev = !Plancache.capacity in
  Plancache.capacity := 2;
  Fun.protect
    ~finally:(fun () -> Plancache.capacity := prev)
    (fun () ->
      let e0 = Plancache.evictions () in
      ignore (Plancache.find_or_derive cat "q1" ~derive:(fun () -> dummy_plan 1));
      ignore (Plancache.find_or_derive cat "q2" ~derive:(fun () -> dummy_plan 2));
      (* Touch q1 so q2 is the least recently used entry. *)
      ignore (Plancache.find_or_derive cat "q1" ~derive:(fun () -> dummy_plan 9));
      ignore (Plancache.find_or_derive cat "q3" ~derive:(fun () -> dummy_plan 3));
      Alcotest.(check int) "capacity respected" 2 (Plancache.size ());
      Alcotest.(check int) "one eviction" 1 (Plancache.evictions () - e0);
      let rederived = ref false in
      ignore
        (Plancache.find_or_derive cat "q1"
           ~derive:(fun () -> rederived := true; dummy_plan 1));
      Alcotest.(check bool) "recently used q1 survived" false !rederived;
      ignore
        (Plancache.find_or_derive cat "q2"
           ~derive:(fun () -> rederived := true; dummy_plan 2));
      Alcotest.(check bool) "LRU q2 was evicted" true !rederived)

let test_plancache_epoch_invalidation () =
  Plancache.clear ();
  let cat = Util.small_catalog () in
  let derived = ref 0 in
  let derive () = incr derived; dummy_plan 1 in
  ignore (Plancache.find_or_derive cat "q" ~derive);
  ignore (Plancache.find_or_derive cat "q" ~derive);
  Alcotest.(check int) "cached across calls" 1 !derived;
  (* Any catalog change bumps the epoch: stale plans stop being served. *)
  Catalog.set_rows cat "PART" [];
  ignore (Plancache.find_or_derive cat "q" ~derive);
  Alcotest.(check int) "re-derived after epoch bump" 2 !derived;
  (* A different catalog never sees this catalog's plans. *)
  Plancache.clear ();
  derived := 0;
  let cat2 = Util.small_catalog () in
  ignore (Plancache.find_or_derive cat "q" ~derive);
  ignore (Plancache.find_or_derive cat2 "q" ~derive);
  Alcotest.(check int) "cache is per catalog" 2 !derived

(* Planning reads the pool size (parallel policies) and the memory
   budget (spill policies and costs), so both are part of the key: a plan
   derived at 1 domain must not serve 2, nor an unlimited budget a
   bounded one. *)
let test_plancache_domains_budget () =
  Plancache.clear ();
  let cat = Gen.catalog { (Gen.scaled ~seed:3 512) with Gen.dangling_rate = 0.0 } in
  let text = "select p.pname from p in PART where p.price < 20" in
  let q =
    fst (Njq_oosql.Translate.query_string Njq_workload.Queries.schema text)
  in
  let derived = ref 0 in
  let derive () =
    incr derived;
    snd (Planner.derive cat q)
  in
  let parallel p =
    let n = ref 0 in
    Plan.iter_nodes
      (function
        | Plan.Filter { morsel = true; _ }
        | Plan.MapOp { morsel = true; _ }
        | Plan.JoinOp { algo = Plan.Partitioned _; _ }
        | Plan.NestjoinOp { algo = Plan.Partitioned _; _ } -> incr n
        | _ -> ())
      p;
    !n > 0
  in
  let p1, _ = with_domains 1 (fun () -> Plancache.find_or_derive cat text ~derive) in
  Alcotest.(check bool) "1-domain plan is sequential" false (parallel p1);
  let p2, hit =
    with_domains 2 (fun () -> Plancache.find_or_derive cat text ~derive)
  in
  Alcotest.(check bool) "2 domains miss the 1-domain plan" false hit;
  Alcotest.(check bool) "2-domain plan carries a parallel policy" true
    (parallel p2);
  let _, hit =
    with_domains 1 (fun () -> Plancache.find_or_derive cat text ~derive)
  in
  Alcotest.(check bool) "1 domain hits its own plan" true hit;
  let prev = !Njq_engine.Memory.budget in
  Njq_engine.Memory.budget := 100;
  let _, hit =
    Fun.protect
      ~finally:(fun () -> Njq_engine.Memory.budget := prev)
      (fun () ->
        with_domains 1 (fun () -> Plancache.find_or_derive cat text ~derive))
  in
  Alcotest.(check bool) "a bounded budget misses" false hit;
  Alcotest.(check int) "three derivations" 3 !derived

let () =
  Alcotest.run "index"
    [ ( "catalog",
        [ Alcotest.test_case "create + point lookup" `Quick
            test_create_and_lookup;
          Alcotest.test_case "creation validation" `Quick test_create_validation;
          Alcotest.test_case "range lookup bounds" `Quick test_range_lookup;
          Alcotest.test_case "multi-attr key + invalidation" `Quick
            test_multi_attr_and_invalidation ] );
      ( "planner",
        [ Alcotest.test_case "point path chosen" `Quick test_planner_picks_point;
          Alcotest.test_case "range path chosen" `Quick test_planner_picks_range;
          Alcotest.test_case "index join through rename" `Quick
            test_planner_picks_index_join_through_rename;
          Alcotest.test_case "unselective keeps scan" `Quick
            test_unselective_keeps_scan ] );
      ( "pointer join",
        [ Alcotest.test_case "four kinds against Eval" `Quick
            test_pointer_member_joins;
          Alcotest.test_case "oid lookups, no hash build" `Quick
            test_pointer_ticks;
          Alcotest.test_case "shared or missing oids keep the build" `Quick
            test_pointer_needs_oid_key;
          Alcotest.test_case "plan outlives the oid key" `Quick
            test_pointer_plan_outlives_oid_key;
          Alcotest.test_case "switches and filtered operands" `Quick
            test_pointer_respects_switches ] );
      ( "differential",
        [ prop_index_scan_differential;
          prop_index_join_differential;
          Alcotest.test_case "fixed plans at 1/2/4 domains" `Quick
            test_differential_across_domains ] );
      ( "plancache",
        [ Alcotest.test_case "hit/miss, normalization, options" `Quick
            test_plancache_hit_miss;
          Alcotest.test_case "LRU eviction" `Quick test_plancache_lru_eviction;
          Alcotest.test_case "epoch invalidation" `Quick
            test_plancache_epoch_invalidation;
          Alcotest.test_case "domains and budget split the key" `Quick
            test_plancache_domains_budget ] ) ]
