(* Round-trip and error tests for the serialization substrate. *)

open Njq_adl
module S = Serialize

let roundtrip_value v = S.value_of_string (S.value_to_string v)

let test_value_examples () =
  let cases =
    [ Value.VNull; Value.bool true; Value.bool false; Value.int 42;
      Value.int (-7); Value.float 1.5; Value.float (-0.25);
      Value.float 1e100; Value.string ""; Value.string "a\"b\\c\nd\te";
      Value.date 19940101; Value.oid 3;
      Value.tuple [];
      Value.tuple [ ("a", Value.int 1); ("b", Value.set [ Value.string "x" ]) ];
      Value.set [];
      Value.set [ Value.set [ Value.int 1 ]; Value.set [] ] ]
  in
  List.iter
    (fun v -> Alcotest.check Util.value (S.value_to_string v) v (roundtrip_value v))
    cases

let test_value_syntax () =
  Alcotest.check Util.value "int" (Value.int 5) (S.value_of_string " 5 ");
  Alcotest.check Util.value "float needs dot" (Value.float 5.0) (S.value_of_string "5.");
  Alcotest.check Util.value "exponent is float" (Value.float 500.0)
    (S.value_of_string "5e2");
  Alcotest.check Util.value "date" (Value.date 940101) (S.value_of_string "d940101");
  Alcotest.check Util.value "oid" (Value.oid 12) (S.value_of_string "#12");
  Alcotest.check Util.value "nested"
    (Value.tuple [ ("s", Value.set [ Value.int 1; Value.int 2 ]) ])
    (S.value_of_string "( s = { 2, 1, 2 } )")

let test_value_errors () =
  let bad s =
    match S.value_of_string s with
    | v -> Alcotest.failf "accepted %S as %a" s Value.pp v
    | exception S.Parse_error _ -> ()
  in
  bad "";
  bad "(a = )";
  bad "{1, }";
  bad "\"unterminated";
  bad "5 trailing";
  bad "frobnicate"

let test_type_roundtrip () =
  let cases =
    [ Vtype.TBool; Vtype.TInt; Vtype.TFloat; Vtype.TString; Vtype.TDate;
      Vtype.TOid; Vtype.TAny; Vtype.TRef "PART";
      Vtype.TSet (Vtype.tuple [ ("a", Vtype.TInt); ("r", Vtype.TRef "X") ]);
      Njq_workload.Generator.delivery_row_type ]
  in
  List.iter
    (fun t ->
      Alcotest.check Util.vtype (S.type_to_string t) t
        (S.type_of_string (S.type_to_string t)))
    cases

let test_catalog_roundtrip () =
  let cat = Njq_workload.Generator.catalog Njq_workload.Generator.default_config in
  let cat' = S.load_catalog (S.save_catalog cat) in
  Alcotest.(check (list string)) "table names" (Catalog.table_names cat)
    (Catalog.table_names cat');
  List.iter
    (fun t ->
      Alcotest.check Util.vtype (t ^ " row type") (Catalog.row_type cat t)
        (Catalog.row_type cat' t);
      Alcotest.check Util.value (t ^ " rows")
        (Value.set (Catalog.rows cat t))
        (Value.set (Catalog.rows cat' t)))
    (Catalog.table_names cat);
  (* Queries over the reloaded catalog give identical results. *)
  let q = Njq_workload.Queries.to_adl (Njq_workload.Queries.find "EQ5") in
  Alcotest.check Util.value "query over reloaded catalog" (Eval.run cat q)
    (Eval.run cat' q);
  (* The oid counter does not go backwards. *)
  let o = Catalog.fresh_oid cat' in
  List.iter
    (fun t ->
      List.iter
        (fun row ->
          match Value.field row "oid" with
          | Value.VOid n when n < 1_000_000 (* skip injected dangling refs *) ->
            if n >= o then Alcotest.failf "fresh oid %d collides with stored %d" o n
          | _ -> ())
        (Catalog.rows cat' t))
    (Catalog.table_names cat')

let test_catalog_file_roundtrip () =
  let cat = Njq_workload.Generator.catalog { Njq_workload.Generator.default_config with suppliers = 5; parts = 5; deliveries = 5 } in
  let path = Filename.temp_file "njq" ".db" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      S.save_catalog_file cat path;
      let cat' = S.load_catalog_file path in
      Alcotest.check Util.value "file round trip"
        (Value.set (Catalog.rows cat "SUPPLIER"))
        (Value.set (Catalog.rows cat' "SUPPLIER")))

(* A repeated table section, a non-tuple row type and a non-integer oid
   counter are parse errors naming the line, like every other malformed
   catalog text. *)
let test_catalog_malformed () =
  let rejects name text line =
    match S.load_catalog text with
    | _ -> Alcotest.failf "%s: accepted" name
    | exception S.Parse_error msg ->
      Alcotest.(check bool)
        (Printf.sprintf "%s names line %d: %s" name line msg)
        true
        (String.starts_with ~prefix:(Printf.sprintf "line %d:" line) msg)
  in
  let part = "table PART : (oid : oid, pname : string)\n" in
  rejects "repeated table" (part ^ "= (oid = #1, pname = \"a\")\n" ^ part) 3;
  rejects "non-tuple row type" "nextoid 2\ntable T : int\n" 2;
  rejects "non-integer oid counter" "nextoid x\n" 1

let test_json () =
  let v =
    Value.tuple
      [ ("n", Value.string "a\"b"); ("k", Value.oid 3);
        ("d", Value.date 19940101);
        ("s", Value.set [ Value.int 1; Value.float 0.5 ]);
        ("z", Value.VNull) ]
  in
  Alcotest.(check string) "json shape"
    "{\"d\": {\"$date\": 19940101}, \"k\": {\"$oid\": 3}, \"n\": \"a\\\"b\", \"s\": [1, 0.5], \"z\": null}"
    (S.value_to_json v)

(* Exact bytes for one value holding every constructor: escapes in a
   string and in a field name, an oid, a date, non-finite and finite
   floats, a nested tuple and a nested set. *)
let test_json_every_constructor () =
  let v =
    Value.tuple
      [ ("str", Value.string "q\"b\\s\n\t\r\001\031é");
        ("f\"ld", Value.bool true);
        ("oid", Value.oid 42);
        ("day", Value.date 19940912);
        ("inf", Value.float Float.infinity);
        ("nan", Value.float Float.nan);
        ("neg", Value.int (-7));
        ("fl", Value.float 0.1);
        ("tup", Value.tuple [ ("b", Value.VNull); ("a", Value.oid 1) ]);
        ("set",
         Value.set
           [ Value.set [ Value.date 20000101 ];
             Value.tuple [ ("x", Value.bool false) ] ]) ]
  in
  Alcotest.(check string) "json bytes"
    "{\"day\": {\"$date\": 19940912}, \"f\\\"ld\": true, \"fl\": \
     0.10000000000000001, \"inf\": null, \"nan\": null, \"neg\": -7, \
     \"oid\": {\"$oid\": 42}, \"set\": [{\"x\": false}, [{\"$date\": \
     20000101}]], \"str\": \"q\\\"b\\\\s\\n\\t\\r\\u0001\\u001f\195\169\", \
     \"tup\": {\"a\": {\"$oid\": 1}, \"b\": null}}"
    (S.value_to_json v)

let test_csv () =
  let rows =
    Value.set
      [ Value.tuple [ ("a", Value.int 1); ("b", Value.string "x,y") ];
        Value.tuple [ ("a", Value.int 2); ("b", Value.string "plain") ] ]
  in
  Alcotest.(check string) "csv shape" "a,b\n1,\"x,y\"\n2,plain\n"
    (S.rows_to_csv rows);
  Alcotest.(check string) "empty set" "" (S.rows_to_csv Value.empty_set);
  (* nested values are rendered in value syntax *)
  let nested =
    Value.set [ Value.tuple [ ("s", Value.set [ Value.int 1; Value.int 2 ]) ] ]
  in
  Alcotest.(check string) "nested cell" "s\n\"{1, 2}\"\n" (S.rows_to_csv nested)

let prop_value_roundtrip =
  Util.qcheck ~count:500 "value round trip" Util.arbitrary_value (fun v ->
      Value.equal v (roundtrip_value v))

let () =
  Alcotest.run "serialize"
    [ ( "values",
        [ Alcotest.test_case "examples" `Quick test_value_examples;
          Alcotest.test_case "syntax" `Quick test_value_syntax;
          Alcotest.test_case "errors" `Quick test_value_errors;
          Alcotest.test_case "json export" `Quick test_json;
          Alcotest.test_case "json every constructor" `Quick
            test_json_every_constructor;
          Alcotest.test_case "csv export" `Quick test_csv ] );
      ( "types",
        [ Alcotest.test_case "round trip" `Quick test_type_roundtrip ] );
      ( "catalogs",
        [ Alcotest.test_case "round trip" `Quick test_catalog_roundtrip;
          Alcotest.test_case "file round trip" `Quick test_catalog_file_roundtrip;
          Alcotest.test_case "malformed rejected" `Quick test_catalog_malformed ] );
      ("properties", [ prop_value_roundtrip ]) ]
