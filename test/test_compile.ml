(* Compiled parameter expressions (Compile) against the reference
   evaluator (Eval): the compiled closure must return the same value — or
   raise — for every environment, including the Table 3 edge cases (empty
   ranges, VNull from outer-join padding) and binder shadowing. *)

open Njq_adl
module Metrics = Njq_obs.Metrics

let eval_outcome f =
  match f () with
  | v -> Ok v
  | exception Eval.Eval_error m -> Error ("eval: " ^ m)
  | exception Value.Type_error m -> Error ("type: " ^ m)

(* Same value, or both failing (reasons may be phrased differently). *)
let outcomes_agree a b =
  match a, b with
  | Ok va, Ok vb -> Value.equal va vb
  | Error _, Error _ -> true
  | _ -> false

let pp_outcome ppf = function
  | Ok v -> Value.pp ppf v
  | Error m -> Fmt.pf ppf "<%s>" m

let check_agree cat env e =
  let vars = List.map fst env in
  let slots = Array.of_list (List.map snd env) in
  let reference = eval_outcome (fun () -> Eval.eval cat env e) in
  let compiled =
    eval_outcome (fun () -> (Compile.expr cat ~vars e) slots)
  in
  if not (outcomes_agree reference compiled) then
    Alcotest.failf "disagreement on %a@.env=%a@.eval:     %a@.compiled: %a"
      Pretty.pp e
      Fmt.(Dump.list (Dump.pair string Value.pp))
      env pp_outcome reference pp_outcome compiled

(* ------------------------------------------------------------------ *)
(* Property: on random XY predicates and tables, the closure compiled for
   the free variable "x" agrees with the reference evaluator on every X
   row (including rows with empty sets — the dangling-tuple shapes). *)

let prop_xy_agreement =
  Util.qcheck ~count:300 "compiled pred agrees with Eval on XY predicates"
    Util.arbitrary_xy_pred_and_tables
    (fun (pred, ((xs, _) as tables)) ->
      let cat = Util.xy_catalog tables in
      let compiled = Compile.expr1 cat ~var:"x" pred in
      List.iter
        (fun x ->
          let reference =
            eval_outcome (fun () -> Eval.eval cat [ ("x", x) ] pred)
          in
          let got = eval_outcome (fun () -> compiled x) in
          if not (outcomes_agree reference got) then
            QCheck.Test.fail_reportf "on %a:@.eval:     %a@.compiled: %a"
              Value.pp x pp_outcome reference pp_outcome got)
        xs;
      true)

(* ------------------------------------------------------------------ *)
(* Corpus: every paper query (and the extended ones) compiled as a closed
   expression returns exactly Eval.run's result. *)

let corpus_agree () =
  let cfg =
    { Njq_workload.Generator.default_config with
      parts = 24;
      suppliers = 12;
      deliveries = 12;
      dangling_rate = 0.0
    }
  in
  let cat = Njq_workload.Generator.catalog cfg in
  List.iter
    (fun (q : Njq_workload.Queries.query) ->
      let e = Njq_workload.Queries.to_adl q in
      let reference = Eval.run cat e in
      let compiled = (Compile.expr cat ~vars:[] e) [||] in
      Alcotest.check Util.value q.id reference compiled)
    (Njq_workload.Queries.all @ Njq_workload.Queries.extended)

(* ------------------------------------------------------------------ *)
(* Table 3: quantifiers over the empty set — ∀ is vacuously true, ∃ is
   false — and comparisons against VNull padding. *)

let empty_and_null () =
  let cat = Catalog.create () in
  let open Dsl in
  let null = Expr.Const Value.VNull in
  let cases =
    [ forall "z" empty (eq (var "z") (int 1));
      exists "z" empty (eq (var "z") (int 1));
      set_eq empty empty;
      mem (int 1) empty;
      count empty;
      (* null comparisons behave identically in both layers *)
      eq null (int 1);
      eq null null;
      Expr.Cmp (Expr.Lt, null, int 3);
      Expr.If (eq null null, int 1, int 2) ]
  in
  List.iter (fun e -> check_agree cat [] e) cases;
  (* P(x, ∅): the quantifier range comes from a variable bound to ∅. *)
  let x_empty = Value.tuple [ ("c", Value.empty_set) ] in
  List.iter
    (fun e -> check_agree cat [ ("x", x_empty) ] e)
    [ forall "z" (var "x" $. "c") (eq (var "z") (int 1));
      exists "z" (var "x" $. "c") (eq (var "z") (int 1)) ]

(* ------------------------------------------------------------------ *)
(* Shadowing: inner binders reuse an outer variable's name.  The slot
   environment must resolve each reference to the innermost binding, like
   the assoc environment's leftmost cons. *)

let shadowing () =
  let open Dsl in
  let cat = Catalog.create () in
  let row = Value.tuple [ ("a", Value.int 1); ("c", Value.set [ Value.int 2 ]) ] in
  (* inner x (an int element) shadows outer x (the row) in the body *)
  check_agree cat
    [ ("x", row) ]
    (exists "x" (var "x" $. "c") (eq (var "x") (int 2)));
  check_agree cat
    [ ("x", row) ]
    (map_ "x" (var "x" $. "c") (add (var "x") (int 1)));
  (* Join with xvar = yvar: the left binder wins in the predicate. *)
  let xs = Expr.SetLit [ tuple [ ("a", int 1) ]; tuple [ ("a", int 2) ] ] in
  let ys = Expr.SetLit [ tuple [ ("b", int 1) ]; tuple [ ("b", int 2) ] ] in
  check_agree cat []
    (Expr.Join
       { kind = Expr.Semi;
         xvar = "v";
         yvar = "v";
         pred = eq (var "v" $. "a") (int 1);
         left = xs;
         right = ys
       });
  (* expr2 with colliding names: the first variable shadows the second. *)
  let f =
    Compile.expr2 cat ~vars:("v", "v") (Dsl.var "v")
  in
  Alcotest.check Util.value "expr2 shadow" (Value.int 1)
    (f (Value.int 1) (Value.int 99))

let unbound () =
  let cat = Catalog.create () in
  let f = Compile.expr cat ~vars:[ "x" ] (Dsl.var "nope") in
  Alcotest.check_raises "unbound variable raises at run time"
    (Eval.Eval_error "unbound variable nope") (fun () ->
      ignore (f [| Value.int 0 |]))

(* Compiled closures must not pay the interpreter's per-tuple accounting:
   running one ticks no "nl_pred_eval"/"nl_tuple_visit". *)
let no_interpreter_ticks () =
  let cat = Util.small_catalog () in
  let open Dsl in
  let e =
    exists "p" (table "PART") (eq (var "p" $. "price") (var "x" $. "price"))
  in
  let f = Compile.expr1 cat ~var:"x" e in
  let row = Value.tuple [ ("price", Value.int 10) ] in
  let _, { Metrics.work = counts; _ } = Metrics.measure (fun () -> f row) in
  let count name = try List.assoc name counts with Not_found -> 0 in
  Alcotest.(check int) "nl_pred_eval" 0 (count "nl_pred_eval");
  Alcotest.(check int) "nl_tuple_visit" 0 (count "nl_tuple_visit")

(* Closed subexpressions fold to constants, but a folded failure must not
   escape until the expression is actually forced (short-circuit). *)
let deferred_failure () =
  let cat = Catalog.create () in
  let open Dsl in
  let boom = Expr.Field (int 1, "a") in
  (* (false && boom) never forces boom *)
  check_agree cat [] (Expr.And (bool false, boom));
  check_agree cat [] (Expr.Or (bool true, boom));
  check_agree cat [] (Expr.If (bool false, boom, int 7));
  (* forcing it fails in both layers *)
  check_agree cat [] (Expr.And (bool true, boom))

(* ------------------------------------------------------------------ *)
(* Dereferences: [deref⟨C⟩(r).a] compiles to a read of C's column for [a]
   ([Catalog.deref_field]).  Against [Eval], the compiled closure must
   return the same value, or fail with the same exception and message on
   the same row, and tick "oid_lookup" as often — on catalogs with and
   without dangling references, where [a] is missing from some rows and
   [r] is a reference attribute, an element of a reference set, a field
   of a set element (EQ3.2's [x.part]) or no oid at all. *)

(* The outcome, exception and message included, and the "oid_lookup"
   ticks spent reaching it, failures too. *)
let strict_outcome f =
  Metrics.reset_counters ();
  let outcome =
    match f () with
    | v -> Ok v
    | exception exn -> Error (Printexc.to_string exn)
  in
  (outcome, Metrics.get "oid_lookup")

(* Every third part loses its color, every fifth gains a note, and one
   supplier in four loses its name. *)
let deref_catalog ~seed ~dangling_rate =
  let cat =
    Njq_workload.Generator.catalog
      { (Njq_workload.Generator.scaled ~seed 24) with dangling_rate }
  in
  let edit table f =
    Catalog.set_rows cat table (List.mapi f (Catalog.rows cat table))
  in
  edit "PART" (fun i row ->
      let row = if i mod 3 = 0 then Value.project_away row [ "color" ] else row in
      if i mod 5 = 0 then Value.except row [ ("note", Value.int i) ] else row);
  edit "SUPPLIER" (fun i row ->
      if i mod 4 = 1 then Value.project_away row [ "sname" ] else row);
  cat

(* [deref⟨C⟩(r).a] over the row variable [x] of extent [src], as a value
   and as a predicate, for each way of reaching a reference. *)
let gen_deref_case =
  let open QCheck.Gen in
  let open Dsl in
  let path cls r a = deref cls r $. a in
  let part_attr = oneofl [ "color"; "pname"; "note"; "oid" ] in
  let cases =
    [ (* a reference attribute, into its extent or a wrong one *)
      map2
        (fun cls a ->
          ("DELIVERY", [ path cls (var "x" $. "supplier") a;
                         eq (path cls (var "x" $. "supplier") a) (str "s1") ]))
        (oneofl [ "SUPPLIER"; "PART"; "NOWHERE" ])
        (oneofl [ "sname"; "oid"; "note" ]);
      (* an element of a reference set *)
      map
        (fun a ->
          ("SUPPLIER",
           [ map_ "p" (var "x" $. "parts_supplied") (path "PART" (var "p") a);
             exists "p" (var "x" $. "parts_supplied")
               (eq (path "PART" (var "p") a) (str "red"));
             select "p" (var "x" $. "parts_supplied")
               (eq (path "PART" (var "p") a) (str "red")) ]))
        part_attr;
      (* a field of a set element *)
      map
        (fun a ->
          ("DELIVERY",
           [ exists "y" (var "x" $. "supply")
               (eq (path "PART" (var "y" $. "part") a) (str "red"));
             map_ "y" (var "x" $. "supply") (path "PART" (var "y" $. "part") a) ]))
        part_attr;
      (* no oid at all *)
      map2
        (fun (src, r) a -> (src, [ path "PART" (var "x" $. r) a ]))
        (oneofl [ ("SUPPLIER", "sname"); ("DELIVERY", "date") ])
        part_attr ]
  in
  triple (oneofl [ 0.0; 0.05 ]) (int_range 1 4) (oneof cases)

let prop_deref_agreement =
  Util.qcheck ~count:60 "deref paths agree with Eval message for message"
    (QCheck.make gen_deref_case ~print:(fun (rate, seed, (src, es)) ->
         Fmt.str "dangling %.2f seed %d over %s: %a" rate seed src
           Fmt.(list ~sep:semi Pretty.pp)
           es))
    (fun (dangling_rate, seed, (src, es)) ->
      let cat = deref_catalog ~seed ~dangling_rate in
      List.iter
        (fun e ->
          let compiled = Compile.expr1 cat ~var:"x" e in
          List.iter
            (fun x ->
              let reference, ref_work =
                strict_outcome (fun () -> Eval.eval cat [ ("x", x) ] e)
              and got, work = strict_outcome (fun () -> compiled x) in
              let same =
                match reference, got with
                | Ok a, Ok b -> Value.equal a b
                | Error a, Error b -> String.equal a b
                | _ -> false
              in
              if not same then
                QCheck.Test.fail_reportf "%a on %a:@.eval:     %a@.compiled: %a"
                  Pretty.pp e Value.pp x
                  (Fmt.result ~ok:Value.pp ~error:Fmt.string)
                  reference
                  (Fmt.result ~ok:Value.pp ~error:Fmt.string)
                  got;
              if ref_work <> work then
                QCheck.Test.fail_reportf "%a on %a: %d oid_lookup, Eval %d"
                  Pretty.pp e Value.pp x work ref_work)
            (Catalog.rows cat src))
        es;
      true)

let () =
  Alcotest.run "compile"
    [ ( "agreement",
        [ prop_xy_agreement;
          prop_deref_agreement;
          Alcotest.test_case "paper corpus" `Quick corpus_agree ] );
      ( "edge cases",
        [ Alcotest.test_case "empty set and null (Table 3)" `Quick
            empty_and_null;
          Alcotest.test_case "binder shadowing" `Quick shadowing;
          Alcotest.test_case "unbound variable" `Quick unbound;
          Alcotest.test_case "no interpreter ticks" `Quick no_interpreter_ticks;
          Alcotest.test_case "deferred constant-fold failure" `Quick
            deferred_failure ] ) ]
