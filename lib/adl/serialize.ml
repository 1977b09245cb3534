(* Serialization of values, types and whole catalogs to an unambiguous
   textual format, so that generated databases can be saved and reloaded
   (e.g. to share a workload between runs or inspect extents by hand).

   Value syntax:
     null | true | false | 42 | 42.5 (floats always carry '.' or 'e')
     | "string with \" and \\ escapes" | #42 (oid) | d19940101 (date)
     | (a = v, b = v) | {v, v}

   Type syntax:
     bool | int | float | string | date | oid | ref Name | _ (wildcard)
     | (a : t, b : t) | {t}

   Catalog syntax (line-oriented):
     nextoid N
     table NAME : TYPE
     = VALUE        (one row per line; strings escape newlines)
*)

exception Parse_error of string

let fail fmt = Fmt.kstr (fun s -> raise (Parse_error s)) fmt

(* ------------------------------------------------------------------ *)
(* Writers                                                             *)
(* ------------------------------------------------------------------ *)

let rec write_value buf (v : Value.t) =
  match v with
  | Value.VNull -> Buffer.add_string buf "null"
  | Value.VBool b -> Buffer.add_string buf (if b then "true" else "false")
  | Value.VInt n -> Buffer.add_string buf (string_of_int n)
  | Value.VFloat f ->
    let s = Printf.sprintf "%.17g" f in
    Buffer.add_string buf
      (if String.contains s '.' || String.contains s 'e'
          || String.contains s 'n' (* nan, inf *)
       then s
       else s ^ ".")
  | Value.VString s ->
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\t' -> Buffer.add_string buf "\\t"
        | c -> Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"'
  | Value.VDate d ->
    Buffer.add_char buf 'd';
    Buffer.add_string buf (string_of_int d)
  | Value.VOid n ->
    Buffer.add_char buf '#';
    Buffer.add_string buf (string_of_int n)
  | Value.VTuple fields ->
    Buffer.add_char buf '(';
    List.iteri
      (fun i (name, fv) ->
        if i > 0 then Buffer.add_string buf ", ";
        Buffer.add_string buf name;
        Buffer.add_string buf " = ";
        write_value buf fv)
      fields;
    Buffer.add_char buf ')'
  | Value.VSet elems ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i ev ->
        if i > 0 then Buffer.add_string buf ", ";
        write_value buf ev)
      elems;
    Buffer.add_char buf '}'

let value_to_string v =
  let buf = Buffer.create 64 in
  write_value buf v;
  Buffer.contents buf

let rec write_type buf (t : Vtype.t) =
  match t with
  | Vtype.TAny -> Buffer.add_char buf '_'
  | Vtype.TBool -> Buffer.add_string buf "bool"
  | Vtype.TInt -> Buffer.add_string buf "int"
  | Vtype.TFloat -> Buffer.add_string buf "float"
  | Vtype.TString -> Buffer.add_string buf "string"
  | Vtype.TDate -> Buffer.add_string buf "date"
  | Vtype.TOid -> Buffer.add_string buf "oid"
  | Vtype.TRef cls ->
    Buffer.add_string buf "ref ";
    Buffer.add_string buf cls
  | Vtype.TTuple fields ->
    Buffer.add_char buf '(';
    List.iteri
      (fun i (name, ft) ->
        if i > 0 then Buffer.add_string buf ", ";
        Buffer.add_string buf name;
        Buffer.add_string buf " : ";
        write_type buf ft)
      fields;
    Buffer.add_char buf ')'
  | Vtype.TSet t ->
    Buffer.add_char buf '{';
    write_type buf t;
    Buffer.add_char buf '}'

let type_to_string t =
  let buf = Buffer.create 32 in
  write_type buf t;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Readers: a tiny character-level recursive-descent parser             *)
(* ------------------------------------------------------------------ *)

type cursor = { src : string; mutable i : int }

let peek c = if c.i < String.length c.src then Some c.src.[c.i] else None

let advance c = c.i <- c.i + 1

let rec skip_ws c =
  match peek c with
  | Some (' ' | '\t' | '\n' | '\r') ->
    advance c;
    skip_ws c
  | _ -> ()

let expect c ch =
  skip_ws c;
  match peek c with
  | Some x when x = ch -> advance c
  | Some x -> fail "expected %C, found %C at offset %d" ch x c.i
  | None -> fail "expected %C, found end of input" ch

let is_digit ch = ch >= '0' && ch <= '9'
let is_ident_char ch =
  (ch >= 'a' && ch <= 'z') || (ch >= 'A' && ch <= 'Z') || is_digit ch || ch = '_'

let read_ident c =
  skip_ws c;
  let start = c.i in
  let rec go () =
    match peek c with
    | Some ch when is_ident_char ch ->
      advance c;
      go ()
    | _ -> ()
  in
  go ();
  if c.i = start then fail "expected an identifier at offset %d" c.i;
  String.sub c.src start (c.i - start)

let read_int c =
  skip_ws c;
  let start = c.i in
  (match peek c with Some '-' -> advance c | _ -> ());
  let rec go () =
    match peek c with
    | Some ch when is_digit ch ->
      advance c;
      go ()
    | _ -> ()
  in
  go ();
  if c.i = start then fail "expected a number at offset %d" c.i;
  int_of_string (String.sub c.src start (c.i - start))

let read_string_lit c =
  expect c '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek c with
    | None -> fail "unterminated string"
    | Some '"' -> advance c
    | Some '\\' ->
      advance c;
      (match peek c with
       | Some 'n' -> Buffer.add_char buf '\n'
       | Some 't' -> Buffer.add_char buf '\t'
       | Some ch -> Buffer.add_char buf ch
       | None -> fail "unterminated escape");
      advance c;
      go ()
    | Some ch ->
      Buffer.add_char buf ch;
      advance c;
      go ()
  in
  go ();
  Buffer.contents buf

let rec read_value c : Value.t =
  skip_ws c;
  match peek c with
  | None -> fail "expected a value, found end of input"
  | Some '"' -> Value.string (read_string_lit c)
  | Some '#' ->
    advance c;
    Value.oid (read_int c)
  | Some 'd' when c.i + 1 < String.length c.src && is_digit c.src.[c.i + 1] ->
    advance c;
    Value.date (read_int c)
  | Some '(' ->
    advance c;
    skip_ws c;
    if peek c = Some ')' then (advance c; Value.tuple [])
    else begin
      let rec fields acc =
        let name = read_ident c in
        skip_ws c;
        expect c '=';
        let v = read_value c in
        let acc = (name, v) :: acc in
        skip_ws c;
        match peek c with
        | Some ',' ->
          advance c;
          fields acc
        | Some ')' ->
          advance c;
          List.rev acc
        | _ -> fail "expected ',' or ')' in tuple at offset %d" c.i
      in
      Value.tuple (fields [])
    end
  | Some '{' ->
    advance c;
    skip_ws c;
    if peek c = Some '}' then (advance c; Value.empty_set)
    else begin
      let rec elems acc =
        let v = read_value c in
        let acc = v :: acc in
        skip_ws c;
        match peek c with
        | Some ',' ->
          advance c;
          elems acc
        | Some '}' ->
          advance c;
          List.rev acc
        | _ -> fail "expected ',' or '}' in set at offset %d" c.i
      in
      Value.set (elems [])
    end
  | Some ch when is_digit ch || ch = '-' ->
    (* number: float iff it carries '.' or an exponent *)
    let start = c.i in
    (match peek c with Some '-' -> advance c | _ -> ());
    let rec digits () =
      match peek c with
      | Some ch when is_digit ch ->
        advance c;
        digits ()
      | _ -> ()
    in
    digits ();
    let is_float = ref false in
    (match peek c with
     | Some '.' ->
       is_float := true;
       advance c;
       digits ()
     | _ -> ());
    (match peek c with
     | Some ('e' | 'E') ->
       is_float := true;
       advance c;
       (match peek c with Some ('+' | '-') -> advance c | _ -> ());
       digits ()
     | _ -> ());
    let text = String.sub c.src start (c.i - start) in
    if !is_float then Value.float (float_of_string text)
    else Value.int (int_of_string text)
  | Some _ ->
    (match read_ident c with
     | "null" -> Value.VNull
     | "true" -> Value.bool true
     | "false" -> Value.bool false
     | "nan" -> Value.float Float.nan
     | "inf" -> Value.float Float.infinity
     | word -> fail "unexpected word %S in value" word)

let value_of_string s =
  let c = { src = s; i = 0 } in
  let v = read_value c in
  skip_ws c;
  if c.i < String.length s then fail "trailing input after value at offset %d" c.i;
  v

(* Partial reads, for embedding value literals in other syntaxes (the ADL
   textual syntax delegates its literals here). *)
let read_value_prefix (s : string) : Value.t * int =
  let c = { src = s; i = 0 } in
  let v = read_value c in
  (v, c.i)

let rec read_type c : Vtype.t =
  skip_ws c;
  match peek c with
  | Some '_' ->
    advance c;
    Vtype.TAny
  | Some '(' ->
    advance c;
    skip_ws c;
    if peek c = Some ')' then (advance c; Vtype.tuple [])
    else begin
      let rec fields acc =
        let name = read_ident c in
        skip_ws c;
        expect c ':';
        let t = read_type c in
        let acc = (name, t) :: acc in
        skip_ws c;
        match peek c with
        | Some ',' ->
          advance c;
          fields acc
        | Some ')' ->
          advance c;
          List.rev acc
        | _ -> fail "expected ',' or ')' in tuple type at offset %d" c.i
      in
      Vtype.tuple (fields [])
    end
  | Some '{' ->
    advance c;
    let t = read_type c in
    skip_ws c;
    expect c '}';
    Vtype.TSet t
  | _ ->
    (match read_ident c with
     | "bool" -> Vtype.TBool
     | "int" -> Vtype.TInt
     | "float" -> Vtype.TFloat
     | "string" -> Vtype.TString
     | "date" -> Vtype.TDate
     | "oid" -> Vtype.TOid
     | "ref" -> Vtype.TRef (read_ident c)
     | word -> fail "unknown type %S" word)

let type_of_string s =
  let c = { src = s; i = 0 } in
  let t = read_type c in
  skip_ws c;
  if c.i < String.length s then fail "trailing input after type at offset %d" c.i;
  t

(* ------------------------------------------------------------------ *)
(* Catalogs                                                            *)
(* ------------------------------------------------------------------ *)

let save_catalog (cat : Catalog.t) : string =
  let buf = Buffer.create 4096 in
  (* Reserve the next oid by allocating one; keeps loaded catalogs from
     reusing identifiers. *)
  let probe = Catalog.fresh_oid cat in
  Buffer.add_string buf (Printf.sprintf "nextoid %d\n" probe);
  List.iter
    (fun name ->
      Buffer.add_string buf
        (Printf.sprintf "table %s : %s\n" name
           (type_to_string (Catalog.row_type cat name)));
      List.iter
        (fun row ->
          Buffer.add_string buf "= ";
          write_value buf row;
          Buffer.add_char buf '\n')
        (Catalog.rows cat name))
    (Catalog.table_names cat);
  Buffer.contents buf

let load_catalog (text : string) : Catalog.t =
  let cat = Catalog.create () in
  let lines = String.split_on_char '\n' text in
  let current = ref None in
  let flush_rows name rows = Catalog.set_rows cat name (List.rev rows) in
  let next_oid = ref 1 in
  List.iteri
    (fun lineno line ->
      let line = String.trim line in
      if String.length line = 0 then ()
      else if String.length line > 8 && String.sub line 0 8 = "nextoid " then
        (match int_of_string_opt (String.trim (String.sub line 8 (String.length line - 8))) with
         | Some n -> next_oid := n
         | None -> fail "line %d: nextoid is not an integer" (lineno + 1))
      else if String.length line > 6 && String.sub line 0 6 = "table " then begin
        (match !current with
         | Some (name, rows) -> flush_rows name rows
         | None -> ());
        let rest = String.sub line 6 (String.length line - 6) in
        match String.index_opt rest ':' with
        | None -> fail "line %d: missing ':' in table header" (lineno + 1)
        | Some colon ->
          let name = String.trim (String.sub rest 0 colon) in
          let ty =
            type_of_string
              (String.trim (String.sub rest (colon + 1) (String.length rest - colon - 1)))
          in
          (match Catalog.table_error cat ~name ~row_type:ty with
           | Some msg -> fail "line %d: %s" (lineno + 1) msg
           | None -> ());
          Catalog.add_table cat ~name ~row_type:ty [];
          current := Some (name, [])
      end
      else if line.[0] = '=' then begin
        match !current with
        | None -> fail "line %d: row outside any table" (lineno + 1)
        | Some (name, rows) ->
          let v = value_of_string (String.sub line 1 (String.length line - 1)) in
          current := Some (name, v :: rows)
      end
      else fail "line %d: unrecognized line %S" (lineno + 1) line)
    lines;
  (match !current with
   | Some (name, rows) -> flush_rows name rows
   | None -> ());
  Catalog.ensure_oid_above cat !next_oid;
  cat

(* ------------------------------------------------------------------ *)
(* Export formats                                                      *)
(* ------------------------------------------------------------------ *)

(* JSON rendering: tuples become objects, sets arrays; oids and dates are
   tagged objects so the representation stays lossless.  Everything but a
   finite float goes straight into the buffer, with no format string
   interpreted per value; field names are quoted as [%S] would, with
   [String.escaped]. *)
let hex_digit n = "0123456789abcdef".[n land 15]

let rec write_json buf (v : Value.t) =
  match v with
  | Value.VNull -> Buffer.add_string buf "null"
  | Value.VBool b -> Buffer.add_string buf (if b then "true" else "false")
  | Value.VInt n -> Buffer.add_string buf (string_of_int n)
  | Value.VFloat f ->
    if Float.is_finite f then Buffer.add_string buf (Printf.sprintf "%.17g" f)
    else Buffer.add_string buf "null"
  | Value.VString s ->
    Buffer.add_char buf '"';
    String.iter
      (fun ch ->
        match ch with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\t' -> Buffer.add_string buf "\\t"
        | '\r' -> Buffer.add_string buf "\\r"
        | ch when Char.code ch < 0x20 ->
          Buffer.add_string buf "\\u00";
          Buffer.add_char buf (hex_digit (Char.code ch lsr 4));
          Buffer.add_char buf (hex_digit (Char.code ch))
        | ch -> Buffer.add_char buf ch)
      s;
    Buffer.add_char buf '"'
  | Value.VDate d ->
    Buffer.add_string buf "{\"$date\": ";
    Buffer.add_string buf (string_of_int d);
    Buffer.add_char buf '}'
  | Value.VOid n ->
    Buffer.add_string buf "{\"$oid\": ";
    Buffer.add_string buf (string_of_int n);
    Buffer.add_char buf '}'
  | Value.VTuple fields ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (name, fv) ->
        if i > 0 then Buffer.add_string buf ", ";
        Buffer.add_char buf '"';
        Buffer.add_string buf (String.escaped name);
        Buffer.add_string buf "\": ";
        write_json buf fv)
      fields;
    Buffer.add_char buf '}'
  | Value.VSet elems ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i ev ->
        if i > 0 then Buffer.add_string buf ", ";
        write_json buf ev)
      elems;
    Buffer.add_char buf ']'

let value_to_json v =
  let buf = Buffer.create 64 in
  write_json buf v;
  Buffer.contents buf

(* CSV rendering of a set of tuples: a header line from the first row's
   (sorted) field names, then one line per row.  Nested values are rendered
   in the value syntax inside the cell; cells are quoted when needed. *)
let rows_to_csv (v : Value.t) : string =
  let rows = Value.as_set v in
  match rows with
  | [] -> ""
  | first :: _ ->
    let headers = Value.field_names first in
    let buf = Buffer.create 256 in
    let cell s =
      if String.exists (fun ch -> ch = ',' || ch = '"' || ch = '\n') s then begin
        Buffer.add_char buf '"';
        String.iter
          (fun ch ->
            if ch = '"' then Buffer.add_string buf "\"\""
            else Buffer.add_char buf ch)
          s;
        Buffer.add_char buf '"'
      end
      else Buffer.add_string buf s
    in
    List.iteri
      (fun i h ->
        if i > 0 then Buffer.add_char buf ',';
        cell h)
      headers;
    Buffer.add_char buf '\n';
    List.iter
      (fun row ->
        List.iteri
          (fun i h ->
            if i > 0 then Buffer.add_char buf ',';
            let field = Value.field row h in
            let text =
              match field with
              | Value.VString s -> s
              | Value.VInt n -> string_of_int n
              | Value.VBool b -> string_of_bool b
              | other -> value_to_string other
            in
            cell text)
          headers;
        Buffer.add_char buf '\n')
      rows;
    Buffer.contents buf

let save_catalog_file cat path =
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc (save_catalog cat))

let load_catalog_file path =
  load_catalog (In_channel.with_open_text path In_channel.input_all)
