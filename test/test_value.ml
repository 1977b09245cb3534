(* Unit and property tests for the complex-object value domain. *)

open Njq_adl

let vi = Value.int
let vs l = Value.set l

let test_set_canonical () =
  Util.check_value "duplicates removed" (vs [ vi 1; vi 2 ]) (vs [ vi 2; vi 1; vi 2 ]);
  Util.check_value "empty" Value.empty_set (vs []);
  Alcotest.(check int) "size" 2 (Value.set_size (vs [ vi 1; vi 1; vi 2 ]))

let test_tuple_canonical () =
  Util.check_value "field order irrelevant"
    (Value.tuple [ ("a", vi 1); ("b", vi 2) ])
    (Value.tuple [ ("b", vi 2); ("a", vi 1) ]);
  Alcotest.check_raises "duplicate field rejected"
    (Value.Type_error "duplicate tuple field a") (fun () ->
      ignore (Value.tuple [ ("a", vi 1); ("a", vi 2) ]))

let test_field_access () =
  let t = Value.tuple [ ("x", vi 1); ("y", vs [ vi 2 ]) ] in
  Util.check_value "field x" (vi 1) (Value.field t "x");
  Alcotest.(check bool) "has_field" true (Value.has_field t "y");
  Alcotest.(check bool) "no field" false (Value.has_field t "z");
  Alcotest.(check (list string)) "names" [ "x"; "y" ] (Value.field_names t)

let test_projection () =
  let t = Value.tuple [ ("a", vi 1); ("b", vi 2); ("c", vi 3) ] in
  Util.check_value "project" (Value.tuple [ ("a", vi 1); ("c", vi 3) ])
    (Value.project t [ "a"; "c" ]);
  Util.check_value "project away" (Value.tuple [ ("b", vi 2) ])
    (Value.project_away t [ "a"; "c" ])

let test_concat_except () =
  let a = Value.tuple [ ("x", vi 1) ] and b = Value.tuple [ ("y", vi 2) ] in
  Util.check_value "concat" (Value.tuple [ ("x", vi 1); ("y", vi 2) ]) (Value.concat a b);
  let u = Value.except (Value.concat a b) [ ("x", vi 9); ("z", vi 3) ] in
  Util.check_value "except updates and extends"
    (Value.tuple [ ("x", vi 9); ("y", vi 2); ("z", vi 3) ])
    u

let test_set_operations () =
  let s12 = vs [ vi 1; vi 2 ] and s23 = vs [ vi 2; vi 3 ] in
  Util.check_value "union" (vs [ vi 1; vi 2; vi 3 ]) (Value.union s12 s23);
  Util.check_value "inter" (vs [ vi 2 ]) (Value.inter s12 s23);
  Util.check_value "diff" (vs [ vi 1 ]) (Value.diff s12 s23);
  Alcotest.(check bool) "mem" true (Value.mem (vi 2) s12);
  Alcotest.(check bool) "subset_eq refl" true (Value.subset_eq s12 s12);
  Alcotest.(check bool) "subset strict" false (Value.subset s12 s12);
  Alcotest.(check bool) "subset proper" true
    (Value.subset s12 (vs [ vi 1; vi 2; vi 3 ]))

let test_flatten () =
  let nested = vs [ vs [ vi 1; vi 2 ]; vs [ vi 2; vi 3 ]; vs [] ] in
  Util.check_value "flatten" (vs [ vi 1; vi 2; vi 3 ]) (Value.flatten nested)

let test_compare_cross_shape () =
  (* The order across shapes is arbitrary but must be total and consistent. *)
  let vals = [ Value.VNull; Value.bool true; vi 0; Value.string "x"; vs [] ] in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          let c1 = Value.compare a b and c2 = Value.compare b a in
          Alcotest.(check bool) "antisymmetry" true (compare c1 0 = compare 0 c2))
        vals)
    vals

(* Properties *)

let prop_compare_reflexive =
  Util.qcheck "compare x x = 0" Util.arbitrary_value (fun v -> Value.compare v v = 0)

let prop_set_idempotent =
  Util.qcheck "set canonicalization is idempotent"
    QCheck.(pair Util.arbitrary_value Util.arbitrary_value)
    (fun (a, b) ->
      let s = Value.set [ a; b; a ] in
      Value.equal s (Value.set (Value.as_set s)))

let prop_union_commutative =
  Util.qcheck "union commutative"
    QCheck.(pair Util.arbitrary_int_set Util.arbitrary_int_set)
    (fun (a, b) -> Value.equal (Value.union a b) (Value.union b a))

let prop_union_associative =
  Util.qcheck "union associative"
    QCheck.(triple Util.arbitrary_int_set Util.arbitrary_int_set Util.arbitrary_int_set)
    (fun (a, b, c) ->
      Value.equal (Value.union a (Value.union b c)) (Value.union (Value.union a b) c))

let prop_inter_absorption =
  Util.qcheck "A ∩ (A ∪ B) = A"
    QCheck.(pair Util.arbitrary_int_set Util.arbitrary_int_set)
    (fun (a, b) -> Value.equal (Value.inter a (Value.union a b)) a)

let prop_diff_disjoint =
  Util.qcheck "(A \\ B) ∩ B = ∅"
    QCheck.(pair Util.arbitrary_int_set Util.arbitrary_int_set)
    (fun (a, b) -> Value.equal (Value.inter (Value.diff a b) b) Value.empty_set)

let prop_subset_eq_antisym =
  Util.qcheck "A ⊆ B ∧ B ⊆ A ⇒ A = B"
    QCheck.(pair Util.arbitrary_int_set Util.arbitrary_int_set)
    (fun (a, b) ->
      (not (Value.subset_eq a b && Value.subset_eq b a)) || Value.equal a b)

let prop_concat_project_inverse =
  Util.qcheck "projection splits a concatenation"
    QCheck.(pair Util.arbitrary_value Util.arbitrary_value)
    (fun (a, b) ->
      let ta = Value.tuple [ ("l", a) ] and tb = Value.tuple [ ("r", b) ] in
      let c = Value.concat ta tb in
      Value.equal (Value.project c [ "l" ]) ta && Value.equal (Value.project c [ "r" ]) tb)

(* Name lookups.  [Value] compares attribute names with [==], then
   [String.equal]; these references do it the stdlib way, with the
   association-list functions' polymorphic compare.  Both must give the
   same result, or the same [Type_error] message, for names that are equal
   without being physically equal and for names that are missing. *)
module Reference = struct
  let field v a =
    match v with
    | Value.VTuple fs ->
      (match List.assoc_opt a fs with
       | Some x -> x
       | None -> Value.type_error "tuple has no field %s" a)
    | _ -> Value.type_error "field %s selected from non-tuple" a

  let has_field v a =
    match v with Value.VTuple fs -> List.mem_assoc a fs | _ -> false

  let project v attrs =
    let fs = Value.as_tuple v in
    Value.tuple
      (List.map
         (fun a ->
           match List.assoc_opt a fs with
           | Some x -> (a, x)
           | None -> Value.type_error "projection: missing field %s" a)
         attrs)

  let project_away v attrs =
    Value.tuple
      (List.filter (fun (a, _) -> not (List.mem a attrs)) (Value.as_tuple v))

  let concat a b =
    let fa = Value.as_tuple a and fb = Value.as_tuple b in
    List.iter
      (fun (n, _) ->
        if List.mem_assoc n fa then
          Value.type_error "tuple concat: duplicate field %s" n)
      fb;
    Value.tuple (fa @ fb)

  let except v updates =
    let fs = Value.as_tuple v in
    let updated =
      List.map
        (fun (n, old) ->
          match List.assoc_opt n updates with
          | Some x -> (n, x)
          | None -> (n, old))
        fs
    in
    let added = List.filter (fun (n, _) -> not (List.mem_assoc n fs)) updates in
    Value.tuple (updated @ added)
end

(* A fresh copy: equal to [s], never physically equal. *)
let copy s = String.init (String.length s) (String.get s)

let gen_name =
  QCheck.Gen.(
    map2
      (fun n fresh -> if fresh then copy n else n)
      (oneofl [ "a"; "b"; "color"; "oid"; "pname"; "zz" ])
      bool)

(* Tuples over a few names (first occurrence wins), now and then a value
   that is not a tuple. *)
let gen_tuple =
  QCheck.Gen.(
    frequency
      [ ( 9,
          map
            (fun fields ->
              Value.tuple
                (List.fold_left
                   (fun acc (n, v) ->
                     if List.exists (fun (m, _) -> String.equal m n) acc then acc
                     else (n, v) :: acc)
                   [] fields))
            (list_size (int_range 0 5) (pair gen_name (map Value.int small_nat))) );
        (1, return (Value.int 3)) ])

let gen_lookup_case =
  QCheck.Gen.(
    quad gen_tuple gen_tuple
      (list_size (int_range 0 3) gen_name)
      (list_size (int_range 0 3) (pair gen_name (map Value.int small_nat))))

let outcome f =
  match f () with
  | v -> Ok v
  | exception Value.Type_error m -> Error m

let same_outcome eq a b =
  match a, b with
  | Ok x, Ok y -> eq x y
  | Error m, Error m' -> String.equal m m'
  | _ -> false

let prop_name_lookups =
  Util.qcheck ~count:1000 "name lookups agree with List.assoc"
    (QCheck.make gen_lookup_case ~print:(fun (t, u, names, updates) ->
         Fmt.str "%a / %a / [%s] / %a" Value.pp t Value.pp u
           (String.concat "; " names) Value.pp
           (Value.tuple
              (List.sort_uniq (fun (a, _) (b, _) -> String.compare a b) updates))))
    (fun (t, u, names, updates) ->
      let agree name eq ours theirs =
        same_outcome eq (outcome ours) (outcome theirs)
        || QCheck.Test.fail_reportf "%s disagrees" name
      in
      List.for_all
        (fun a ->
          agree "field" Value.equal
            (fun () -> Value.field t a)
            (fun () -> Reference.field t a)
          && agree "has_field" Bool.equal
               (fun () -> Value.has_field t a)
               (fun () -> Reference.has_field t a))
        names
      && agree "project" Value.equal
           (fun () -> Value.project t names)
           (fun () -> Reference.project t names)
      && agree "project_away" Value.equal
           (fun () -> Value.project_away t names)
           (fun () -> Reference.project_away t names)
      && agree "concat" Value.equal
           (fun () -> Value.concat t u)
           (fun () -> Reference.concat t u)
      && agree "except" Value.equal
           (fun () -> Value.except t updates)
           (fun () -> Reference.except t updates))

let () =
  Alcotest.run "value"
    [ ( "unit",
        [ Alcotest.test_case "set canonical" `Quick test_set_canonical;
          Alcotest.test_case "tuple canonical" `Quick test_tuple_canonical;
          Alcotest.test_case "field access" `Quick test_field_access;
          Alcotest.test_case "projection" `Quick test_projection;
          Alcotest.test_case "concat/except" `Quick test_concat_except;
          Alcotest.test_case "set operations" `Quick test_set_operations;
          Alcotest.test_case "flatten" `Quick test_flatten;
          Alcotest.test_case "total order" `Quick test_compare_cross_shape ] );
      ( "properties",
        [ prop_compare_reflexive;
          prop_name_lookups;
          prop_set_idempotent;
          prop_union_commutative;
          prop_union_associative;
          prop_inter_absorption;
          prop_diff_disjoint;
          prop_subset_eq_antisym;
          prop_concat_project_inverse ] ) ]
