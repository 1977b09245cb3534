(* Compact binary codec for [Value.t] rows, the engine's physical wire
   format.  Two consumers share it:

   - spill files: when a partitioned join's build side or a PNHL build
     table exceeds the budget its plan carries, its partitions are
     written as streams of length-prefixed records to temp files and read
     back one resident partition at a time;
   - the NJQC binary catalog format ({!save_catalog}/{!load_catalog}),
     replacing textual parsing on server cold-start.

   Record layout: every record is [uvarint byte-length][payload].  Payload
   values are tagged (one byte) and recursive:

     0 null | 1 false | 2 true | 3 int (zigzag uvarint)
     4 float (8 bytes, IEEE 754 bits, little-endian)
     5 string definition (uvarint length + bytes, assigns the next intern
       id) | 6 string back-reference (uvarint intern id)
     7 date (zigzag uvarint) | 8 oid (zigzag uvarint)
     9 tuple (uvarint field count, then per field: string + value)
     10 set (uvarint element count, then values)

   Strings — including tuple field names, which repeat on every row — are
   interned per stream: the first occurrence is written inline (tag 5) and
   assigns the next id, later occurrences are a one-or-two-byte reference
   (tag 6).  Decoding therefore must consume records strictly in encode
   order within one stream; the NJQC format keeps one intern pool per
   table section so a reader can skip whole tables (the section length is
   in the header) without losing sync.

   The decoder trusts its input to be canonical (it was produced from
   canonical values by this module): tuples are rebuilt with the unchecked
   [Value.of_sorted_fields], sets through [Value.set], whose linear check
   keeps a set written in canonical order as it is.  Corrupt or truncated
   input raises {!Corrupt}. *)

open Njq_adl

exception Corrupt of string

let corrupt fmt = Fmt.kstr (fun s -> raise (Corrupt s)) fmt

(* ------------------------------------------------------------------ *)
(* Varints                                                             *)
(* ------------------------------------------------------------------ *)

(* LEB128 over the full native-int bit pattern: [lsr] makes the loop total
   for negative inputs (at most 9 groups of 7 bits for 63-bit ints). *)
let rec add_uvarint buf n =
  let rest = n lsr 7 in
  if rest = 0 then Buffer.add_char buf (Char.unsafe_chr (n land 0x7f))
  else begin
    Buffer.add_char buf (Char.unsafe_chr (0x80 lor (n land 0x7f)));
    add_uvarint buf rest
  end

(* Zigzag maps small-magnitude signed ints to small unsigned ones so they
   varint-encode short: 0,-1,1,-2,... -> 0,1,2,3,...  [asr 62] is the sign
   fill for OCaml's 63-bit native ints. *)
let zigzag n = (n lsl 1) lxor (n asr 62)
let unzigzag u = (u lsr 1) lxor (-(u land 1))

(* ------------------------------------------------------------------ *)
(* Encoder                                                             *)
(* ------------------------------------------------------------------ *)

type encoder = {
  scratch : Buffer.t;  (* one record's payload, reused across records *)
  intern : (string, int) Hashtbl.t;
  mutable next_id : int;
}

let encoder () =
  { scratch = Buffer.create 256; intern = Hashtbl.create 64; next_id = 0 }

let enc_string enc buf s =
  match Hashtbl.find_opt enc.intern s with
  | Some id ->
    Buffer.add_char buf '\006';
    add_uvarint buf id
  | None ->
    Hashtbl.add enc.intern s enc.next_id;
    enc.next_id <- enc.next_id + 1;
    Buffer.add_char buf '\005';
    add_uvarint buf (String.length s);
    Buffer.add_string buf s

let rec enc_value enc buf v =
  match v with
  | Value.VNull -> Buffer.add_char buf '\000'
  | Value.VBool false -> Buffer.add_char buf '\001'
  | Value.VBool true -> Buffer.add_char buf '\002'
  | Value.VInt n ->
    Buffer.add_char buf '\003';
    add_uvarint buf (zigzag n)
  | Value.VFloat f ->
    Buffer.add_char buf '\004';
    Buffer.add_int64_le buf (Int64.bits_of_float f)
  | Value.VString s -> enc_string enc buf s
  | Value.VDate d ->
    Buffer.add_char buf '\007';
    add_uvarint buf (zigzag d)
  | Value.VOid o ->
    Buffer.add_char buf '\b';
    add_uvarint buf (zigzag o)
  | Value.VTuple fields ->
    Buffer.add_char buf '\t';
    add_uvarint buf (List.length fields);
    List.iter
      (fun (name, fv) ->
        enc_string enc buf name;
        enc_value enc buf fv)
      fields
  | Value.VSet elems ->
    Buffer.add_char buf '\n';
    add_uvarint buf (List.length elems);
    List.iter (enc_value enc buf) elems

(* Append one length-prefixed record to [out]; returns the bytes appended
   (prefix + payload), which is what the spill_bytes counter charges. *)
let encode_record enc out v =
  Buffer.clear enc.scratch;
  enc_value enc enc.scratch v;
  let before = Buffer.length out in
  add_uvarint out (Buffer.length enc.scratch);
  Buffer.add_buffer out enc.scratch;
  Buffer.length out - before

(* ------------------------------------------------------------------ *)
(* Decoder                                                             *)
(* ------------------------------------------------------------------ *)

type decoder = {
  data : string;
  mutable pos : int;
  limit : int;  (* exclusive; decoding stops here, not at end of data *)
  mutable strings : string array;  (* intern pool, id -> string *)
  mutable nstrings : int;
}

let decoder ?(pos = 0) ?limit data =
  let limit = match limit with Some l -> l | None -> String.length data in
  if pos < 0 || limit > String.length data || pos > limit then
    corrupt "decoder bounds [%d, %d) outside data of length %d" pos limit
      (String.length data);
  { data; pos; limit; strings = Array.make 16 ""; nstrings = 0 }

let byte dec =
  if dec.pos >= dec.limit then corrupt "truncated record at byte %d" dec.pos;
  let b = Char.code (String.unsafe_get dec.data dec.pos) in
  dec.pos <- dec.pos + 1;
  b

let read_uvarint dec =
  let rec go shift acc =
    if shift > 62 then corrupt "varint overflow at byte %d" dec.pos;
    let b = byte dec in
    let acc = acc lor ((b land 0x7f) lsl shift) in
    if b land 0x80 = 0 then acc else go (shift + 7) acc
  in
  go 0 0

let read_bytes dec n =
  if n < 0 || dec.pos + n > dec.limit then
    corrupt "truncated: %d bytes wanted at byte %d" n dec.pos;
  let s = String.sub dec.data dec.pos n in
  dec.pos <- dec.pos + n;
  s

let register_string dec s =
  if dec.nstrings = Array.length dec.strings then begin
    let bigger = Array.make (2 * dec.nstrings) "" in
    Array.blit dec.strings 0 bigger 0 dec.nstrings;
    dec.strings <- bigger
  end;
  dec.strings.(dec.nstrings) <- s;
  dec.nstrings <- dec.nstrings + 1

let dec_string_tagged dec tag =
  match tag with
  | 5 ->
    let s = read_bytes dec (read_uvarint dec) in
    register_string dec s;
    s
  | 6 ->
    let id = read_uvarint dec in
    if id >= dec.nstrings then
      corrupt "string back-reference %d before definition" id;
    dec.strings.(id)
  | t -> corrupt "tag %d where a string was expected" t

let rec dec_value dec =
  match byte dec with
  | 0 -> Value.VNull
  | 1 -> Value.VBool false
  | 2 -> Value.VBool true
  | 3 -> Value.VInt (unzigzag (read_uvarint dec))
  | 4 ->
    if dec.pos + 8 > dec.limit then corrupt "truncated float at byte %d" dec.pos;
    let bits = String.get_int64_le dec.data dec.pos in
    dec.pos <- dec.pos + 8;
    Value.VFloat (Int64.float_of_bits bits)
  | (5 | 6) as tag -> Value.VString (dec_string_tagged dec tag)
  | 7 -> Value.VDate (unzigzag (read_uvarint dec))
  | 8 -> Value.VOid (unzigzag (read_uvarint dec))
  | 9 ->
    let n = read_uvarint dec in
    let rec fields i acc =
      if i = n then List.rev acc
      else begin
        let name = dec_string_tagged dec (byte dec) in
        let v = dec_value dec in
        fields (i + 1) ((name, v) :: acc)
      end
    in
    (* Field order was canonical at encode time; skip the re-sort. *)
    Value.of_sorted_fields (fields 0 [])
  | 10 ->
    let n = read_uvarint dec in
    let rec elems i acc =
      if i = n then List.rev acc else elems (i + 1) (dec_value dec :: acc)
    in
    Value.set (elems 0 [])
  | t -> corrupt "unknown value tag %d at byte %d" t (dec.pos - 1)

(* [None] cleanly at the stream limit; {!Corrupt} on a torn record. *)
let decode_record dec =
  if dec.pos >= dec.limit then None
  else begin
    let len = read_uvarint dec in
    let stop = dec.pos + len in
    if stop > dec.limit then
      corrupt "record of %d bytes overruns stream at byte %d" len dec.pos;
    let v = dec_value dec in
    if dec.pos <> stop then
      corrupt "record length %d does not match decoded payload" len;
    Some v
  end

(* ------------------------------------------------------------------ *)
(* Spill files                                                         *)
(* ------------------------------------------------------------------ *)

(* Spill files live under NJQ_TMPDIR (default: the system temp directory)
   and are tracked in a registry so an [at_exit] sweep can unlink whatever
   a raised exception or killed process left behind; operators additionally
   remove their own files under [Fun.protect] as soon as a partition has
   been consumed.  The registry is mutex-guarded: parallel operators only
   read spill files from pool tasks, but creation/removal discipline should
   not depend on that staying true. *)

let temp_dir () =
  match Sys.getenv_opt "NJQ_TMPDIR" with
  | Some d when String.length d > 0 -> d
  | _ -> Filename.get_temp_dir_name ()

let live : (string, unit) Hashtbl.t = Hashtbl.create 16
let live_mu = Mutex.create ()

let with_registry f =
  Mutex.lock live_mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock live_mu) f

let sweep () =
  let paths = with_registry (fun () -> Hashtbl.fold (fun p () acc -> p :: acc) live []) in
  List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) paths

let sweep_registered = ref false

let register_path path =
  with_registry (fun () ->
      if not !sweep_registered then begin
        sweep_registered := true;
        at_exit sweep
      end;
      Hashtbl.replace live path ())

let unregister_path path = with_registry (fun () -> Hashtbl.remove live path)

let live_spills () = with_registry (fun () -> Hashtbl.length live)

(* A spill holds no file descriptor between writes: encoded rows are
   staged in its own buffer and appended to the file with one
   open-write-close whenever [spill_chunk] bytes (an [out_channel]'s
   buffer size) are staged, and at seal.  A spilling operator writes all
   its partitions at once, so a descriptor per open partition would run
   into the process's descriptor limit. *)
let spill_chunk = 65536

type spill = {
  sp_path : string;
  mutable sp_sealed : bool;  (* read back or removed: no more rows *)
  mutable sp_removed : bool;
      (* unlinked: the temp name may since belong to another spill file,
         of this process or another one sharing the directory *)
  sp_enc : encoder;
  sp_staged : Buffer.t;  (* encoded rows not yet in the file *)
  mutable sp_rows : int;
  mutable sp_bytes : int;
}

let spill_create ?(prefix = "njq-spill") () =
  let path = Filename.temp_file ~temp_dir:(temp_dir ()) prefix ".rows" in
  register_path path;
  { sp_path = path;
    sp_sealed = false;
    sp_removed = false;
    sp_enc = encoder ();
    sp_staged = Buffer.create 256;
    sp_rows = 0;
    sp_bytes = 0 }

let spill_path sp = sp.sp_path
let spill_rows sp = sp.sp_rows
let spill_bytes sp = sp.sp_bytes

let append_staged sp =
  Out_channel.with_open_gen [ Open_wronly; Open_append; Open_binary ] 0o600
    sp.sp_path (fun oc -> Buffer.output_buffer oc sp.sp_staged);
  Buffer.clear sp.sp_staged

let spill_add sp v =
  if sp.sp_sealed then invalid_arg "Rowcodec.spill_add: spill already sealed";
  let n = encode_record sp.sp_enc sp.sp_staged v in
  if Buffer.length sp.sp_staged >= spill_chunk then append_staged sp;
  sp.sp_rows <- sp.sp_rows + 1;
  sp.sp_bytes <- sp.sp_bytes + n;
  n

(* Write out what is staged and release the staging buffer. *)
let seal sp =
  if not sp.sp_sealed then begin
    sp.sp_sealed <- true;
    if Buffer.length sp.sp_staged > 0 then append_staged sp;
    Buffer.reset sp.sp_staged
  end

let spill_read sp =
  seal sp;
  let dec = decoder (In_channel.with_open_bin sp.sp_path In_channel.input_all) in
  let rec go acc =
    match decode_record dec with Some v -> go (v :: acc) | None -> List.rev acc
  in
  go []

let spill_remove sp =
  sp.sp_sealed <- true;
  Buffer.reset sp.sp_staged;
  if not sp.sp_removed then begin
    sp.sp_removed <- true;
    unregister_path sp.sp_path;
    try Sys.remove sp.sp_path with Sys_error _ -> ()
  end

(* ------------------------------------------------------------------ *)
(* NJQC binary catalog format                                          *)
(* ------------------------------------------------------------------ *)

(* Layout:

     "NJQC1"                                  magic, 5 bytes
     uvarint next_oid
     uvarint table_count
     per table, in sorted name order:
       uvarint name_length   + name bytes
       uvarint type_length   + row type ([Serialize.type_to_string])
       uvarint row_count
       uvarint section_length
       section: row_count length-prefixed records, fresh intern pool

   The per-table section length makes the header mmap-friendly: a reader
   can locate and decode one table without touching the others' bytes
   (each section's intern pool is self-contained). *)

let njqc_magic = "NJQC1"

(* The first four bytes name the format and the fifth its version: a file
   that starts with "NJQC" is NJQC, so a truncated or foreign-version one
   fails as [Corrupt] instead of being read as text. *)
let njqc_family = String.sub njqc_magic 0 4

let is_njqc path =
  match
    In_channel.with_open_bin path (fun ic ->
        In_channel.really_input_string ic (String.length njqc_family))
  with
  | Some m -> String.equal m njqc_family
  | None -> false
  | exception Sys_error _ -> false

let save_catalog (cat : Catalog.t) path =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf njqc_magic;
  (* Probe-and-store, like the textual format: the loaded catalog's oid
     counter resumes above every identifier this one handed out. *)
  add_uvarint buf (Catalog.fresh_oid cat);
  let names = Catalog.table_names cat in
  add_uvarint buf (List.length names);
  List.iter
    (fun name ->
      let t = Catalog.find cat name in
      let enc = encoder () in
      let section = Buffer.create 1024 in
      List.iter (fun row -> ignore (encode_record enc section row)) t.Catalog.rows;
      let ty = Serialize.type_to_string t.Catalog.row_type in
      add_uvarint buf (String.length name);
      Buffer.add_string buf name;
      add_uvarint buf (String.length ty);
      Buffer.add_string buf ty;
      add_uvarint buf t.Catalog.card;
      add_uvarint buf (Buffer.length section);
      Buffer.add_buffer buf section)
    names;
  Out_channel.with_open_bin path (fun oc -> Buffer.output_buffer oc buf)

let load_catalog path =
  let data = In_channel.with_open_bin path In_channel.input_all in
  let mlen = String.length njqc_magic in
  if String.length data < mlen then corrupt "truncated NJQC header"
  else if not (String.equal (String.sub data 0 mlen) njqc_magic) then
    corrupt "not an %s file (magic %S)" njqc_magic (String.sub data 0 mlen);
  let hd = decoder ~pos:mlen data in
  let next_oid = read_uvarint hd in
  let ntables = read_uvarint hd in
  let cat = Catalog.create () in
  for _ = 1 to ntables do
    let name = read_bytes hd (read_uvarint hd) in
    let row_type = Serialize.type_of_string (read_bytes hd (read_uvarint hd)) in
    Option.iter (corrupt "%s") (Catalog.table_error cat ~name ~row_type);
    let nrows = read_uvarint hd in
    let slen = read_uvarint hd in
    if hd.pos + slen > hd.limit then corrupt "table %s overruns file" name;
    let sec = decoder ~pos:hd.pos ~limit:(hd.pos + slen) data in
    let rows = ref [] in
    for _ = 1 to nrows do
      match decode_record sec with
      | Some v -> rows := v :: !rows
      | None -> corrupt "table %s: fewer rows than header claims" name
    done;
    hd.pos <- hd.pos + slen;
    Catalog.add_table cat ~name ~row_type (List.rev !rows)
  done;
  Catalog.ensure_oid_above cat next_oid;
  cat
