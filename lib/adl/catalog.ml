(* The catalog: named base tables (class extents) with their row types and
   stored values, plus oid indexes supporting the materialize/assembly
   operator (pointer-based dereferencing) and user-declared attribute
   indexes (hash for equality, sorted arrays for ranges) backing the
   engine's index access paths.

   Per the paper's logical database design, every class extension is mapped
   to a table of (possibly complex) objects whose rows carry an [oid] field;
   class references are oid pointers into the referenced extent. *)

(* Oid -> position, by open addressing over two int arrays: monomorphic,
   no polymorphic hash or compare, no allocation per lookup.  Fibonacci
   hashing takes the top bits of [oid * k], which spreads contiguous and
   strided oid ranges alike; the capacity is at least twice the row
   count, so linear probing stays short.  A negative position marks an
   empty slot. *)
module Positions = struct
  type t = { oids : int array; pos : int array; bits : int }

  let slot t o = (o * 0x9E3779B97F4A7C1) lsr (63 - t.bits)

  let create n =
    let rec fit b = if 1 lsl b >= 2 * n then b else fit (b + 1) in
    let bits = fit 4 in
    { oids = Array.make (1 lsl bits) 0; pos = Array.make (1 lsl bits) (-1); bits }

  (* The position of [o], or -1. *)
  let find t o =
    let mask = Array.length t.pos - 1 in
    let rec go i =
      let p = Array.unsafe_get t.pos i in
      if p < 0 || Array.unsafe_get t.oids i = o then p else go ((i + 1) land mask)
    in
    go (slot t o)

  (* Map [o] to [p], replacing an earlier position; true if [o] is new. *)
  let replace t o p =
    let mask = Array.length t.pos - 1 in
    let rec go i =
      if t.pos.(i) < 0 then begin
        t.oids.(i) <- o;
        t.pos.(i) <- p;
        true
      end
      else if t.oids.(i) = o then begin
        t.pos.(i) <- p;
        false
      end
      else go ((i + 1) land mask)
    in
    go (slot t o)
end

type oid_index = {
  extent : string; (* the table's name, for the dangling-reference error *)
  rows : Value.t array; (* the table's [rows_array] *)
  pos : Positions.t; (* oid -> position in [rows] *)
  oid_key : bool;
      (* every row has an oid and no two rows share one: "oid" is a key of
         the extent *)
  columns : (string * Value.t array) list Atomic.t;
      (* per dereferenced attribute, its values aligned with [rows] (see
         [column]); grows by compare-and-set, dropped with the index *)
}

type table = {
  name : string;
  row_type : Vtype.t; (* type of one row (a tuple type) *)
  mutable rows : Value.t list; (* canonical: sorted, deduplicated *)
  mutable card : int;
      (* [List.length rows], kept beside them by their only writers,
         [add_table] and [set_rows], so cardinality reads are O(1) *)
  mutable changed : int;
      (* catalog epoch of the last [add_table]/[set_rows] of this table *)
  oid_index : oid_index option Atomic.t;
      (* lazy index on the row's "oid" field and the attribute columns read
         through it, invalidated on updates; published atomically so pool
         domains can deref concurrently — a lost race rebuilds an identical
         index, never observes a torn one *)
  rows_arr : Value.t array option Atomic.t;
      (* lazy array view of [rows] backing the batched executor's scan
         batches; invalidated by [set_rows], same Atomic publish discipline
         as [oid_index] (immutable after publish, racing builders produce
         identical arrays).  Readers must never mutate the array. *)
}

module VH = Hashtbl.Make (struct
  type t = Value.t

  let equal = Value.equal
  let hash = Value.hash
end)

type index_kind = Hash_index | Sorted_index

(* Built index payload.  Hash buckets and sorted segments both keep their
   rows in the table's canonical (sorted, duplicate-free) order, so a point
   lookup returns exactly the row list a filtered scan would produce. *)
type index_data =
  | Dhash of Value.t list VH.t
      (* key tuple (declared attrs, canonicalized) -> matching rows *)
  | Dsorted of (Value.t array * Value.t) array
      (* (key values in declared attr order, row), sorted lexicographically
         by key with ties in canonical row order *)

type index = {
  idx_name : string;
  idx_table : string;
  idx_attrs : string list; (* one or more attributes, in declared order *)
  idx_kind : index_kind;
  idx_data : index_data option Atomic.t;
      (* lazily built from the table rows, invalidated by [set_rows];
         same Atomic publish discipline as [oid_index]: immutable after
         publish, racing builders produce identical structures *)
}

type t = {
  tables : (string, table) Hashtbl.t;
  mutable next_oid : int;
  cat_id : int; (* unique per catalog instance; keys external caches *)
  mutable epoch : int;
      (* bumped by every schema or data change ([add_table], [set_rows],
         [create_index]) so plan and statistics caches can detect
         staleness without diffing contents *)
  indexes : (string, index) Hashtbl.t; (* by index name *)
}

exception Unknown_table of string

let next_cat_id = Atomic.make 0

let create () =
  { tables = Hashtbl.create 16;
    next_oid = 1;
    cat_id = Atomic.fetch_and_add next_cat_id 1;
    epoch = 0;
    indexes = Hashtbl.create 8 }

let id t = t.cat_id
let epoch t = t.epoch

let fresh_oid t =
  let o = t.next_oid in
  t.next_oid <- o + 1;
  o

(* Make sure future fresh oids are at least [n]; used when reloading a
   saved catalog so identifiers are never reused. *)
let ensure_oid_above t n = if t.next_oid < n then t.next_oid <- n

let table_error t ~name ~row_type =
  if Hashtbl.mem t.tables name then
    Some (Printf.sprintf "table %s already exists" name)
  else
    match row_type with
    | Vtype.TTuple _ -> None
    | _ -> Some (Printf.sprintf "table %s: row type must be a tuple type" name)

let add_table t ~name ~row_type rows =
  Option.iter
    (fun msg -> invalid_arg ("Catalog.add_table: " ^ msg))
    (table_error t ~name ~row_type);
  let rows = List.sort_uniq Value.compare rows in
  t.epoch <- t.epoch + 1;
  Hashtbl.add t.tables name
    { name; row_type; rows; card = List.length rows; changed = t.epoch;
      oid_index = Atomic.make None; rows_arr = Atomic.make None }

let find_opt t name = Hashtbl.find_opt t.tables name

let find t name =
  match find_opt t name with
  | Some tbl -> tbl
  | None -> raise (Unknown_table name)

let mem t name = Hashtbl.mem t.tables name

let rows t name = (find t name).rows

let table_epoch t name = (find t name).changed

(* Array view of a table's canonical rows, built once and cached until the
   next [set_rows]: the batched executor cuts its scan batches out of this
   shared array, so a batched scan allocates no per-row structure at all.
   The array is published whole and never mutated after publish; a racing
   domain may build an identical copy. *)
let rows_array t name =
  let tbl = find t name in
  match Atomic.get tbl.rows_arr with
  | Some arr -> arr
  | None ->
    let arr = Array.of_list tbl.rows in
    Atomic.set tbl.rows_arr (Some arr);
    arr

let row_type t name = (find t name).row_type

(* Type of the table as a whole: a set of its row type. *)
let table_type t name = Vtype.TSet (row_type t name)

let set_rows t name rows =
  let tbl = find t name in
  let rows = List.sort_uniq Value.compare rows in
  tbl.rows <- rows;
  tbl.card <- List.length rows;
  Atomic.set tbl.oid_index None;
  Atomic.set tbl.rows_arr None;
  (* Attribute indexes over this table are rebuilt from the new rows on
     their next use. *)
  Hashtbl.iter
    (fun _ idx ->
      if String.equal idx.idx_table name then Atomic.set idx.idx_data None)
    t.indexes;
  t.epoch <- t.epoch + 1;
  tbl.changed <- t.epoch

let table_names t =
  Hashtbl.fold (fun k _ acc -> k :: acc) t.tables [] |> List.sort String.compare

let cardinality t name = (find t name).card

(* The oid index of extent [name], built on first use: each oid's
   position in [rows_array].  [Positions.replace] keeps one position per
   oid (the last, as the row list orders them), so the build also decides
   whether "oid" is a key of the extent: it is when there are as many
   distinct oids as rows. *)
let oid_index t name =
  let tbl = find t name in
  match Atomic.get tbl.oid_index with
  | Some idx -> idx
  | None ->
    let rows = rows_array t name in
    let pos = Positions.create tbl.card and distinct = ref 0 in
    Array.iteri
      (fun i row ->
        match Value.field_opt row "oid" with
        | Some (Value.VOid o) -> if Positions.replace pos o i then incr distinct
        | _ -> ())
      rows;
    let idx =
      { extent = name; rows; pos; oid_key = !distinct = tbl.card;
        columns = Atomic.make [] }
    in
    (* Publish after the table is fully built; racing domains may each
       build one, but they are identical and readers see a whole index. *)
    Atomic.set tbl.oid_index (Some idx);
    idx

let oid_key t name = (oid_index t name).oid_key

(* Every dereference ticks the "oid_lookup" counter so benches can compare
   assembly against value-based joins. *)
let c_oid_lookup = Njq_obs.Metrics.counter "oid_lookup"

(* The position of the row [oid_value] references: one "oid_lookup" tick,
   then a type error on a non-oid or a dangling reference. *)
let position idx oid_value =
  Njq_obs.Metrics.incr c_oid_lookup;
  let o = Value.as_oid oid_value in
  let p = Positions.find idx.pos o in
  if p < 0 then Value.type_error "dangling reference #%d into %s" o idx.extent
  else p

(* Dereference an oid into extent [name]; builds the index on first use. *)
let deref t name =
  let idx = oid_index t name in
  fun oid_value -> idx.rows.(position idx oid_value)

(* Does the oid resolve in extent [name]?  One "oid_lookup" tick, no
   exception on dangling references or non-oid values.  Applied to the
   extent alone it resolves the oid index once, so a pointer-based join
   pays one table probe per element. *)
let deref_opt t name =
  let idx = oid_index t name in
  fun oid_value ->
    Njq_obs.Metrics.incr c_oid_lookup;
    match oid_value with
    | Value.VOid o ->
      let p = Positions.find idx.pos o in
      if p < 0 then None else Some idx.rows.(p)
    | _ -> None

(* Held in a column where the row lacks the attribute.  Allocated here and
   compared with [==] only, so no stored value can be taken for it. *)
let absent = Value.VString (String.make 1 '-')

let rec find_column a = function
  | [] -> None
  | (n, col) :: rest -> if String.equal n a then Some col else find_column a rest

(* Attribute [a] of every row of the index, by position: built on the
   first dereference of [a] and published beside the oid index.  A domain
   that loses the publishing race takes the winner's identical column;
   readers see whole columns. *)
let column idx a =
  let rec publish col =
    let cols = Atomic.get idx.columns in
    match find_column a cols with
    | Some built -> built
    | None ->
      if Atomic.compare_and_set idx.columns cols ((a, col) :: cols) then col
      else publish col
  in
  match find_column a (Atomic.get idx.columns) with
  | Some built -> built
  | None ->
    publish
      (Array.map
         (fun row -> Option.value ~default:absent (Value.field_opt row a))
         idx.rows)

(* [deref t name] followed by attribute [a]: one position lookup and one
   column read.  A row without [a] reads [absent] and takes the row path,
   which raises the same error [Value.field] raises on that row. *)
let deref_field t name a =
  let idx = oid_index t name in
  let col = column idx a in
  fun oid_value ->
    let p = position idx oid_value in
    let v = col.(p) in
    if v == absent then Value.field idx.rows.(p) a else v

(* ------------------------------------------------------------------ *)
(* Attribute indexes                                                   *)
(* ------------------------------------------------------------------ *)

let c_idx_build = Njq_obs.Metrics.counter "idx_build"
let c_idx_probe = Njq_obs.Metrics.counter "idx_probe"
let c_idx_row = Njq_obs.Metrics.counter "idx_row"

let kind_name = function Hash_index -> "hash" | Sorted_index -> "sorted"

let index_name i = i.idx_name
let index_attrs i = i.idx_attrs
let index_kind i = i.idx_kind

(* Lexicographic comparison of composite keys in declared attribute
   order (a [Value.tuple] would re-sort the attributes by name). *)
let compare_keys a b =
  let la = Array.length a and lb = Array.length b in
  let n = min la lb in
  let rec go i =
    if i = n then compare la lb
    else
      match Value.compare a.(i) b.(i) with
      | 0 -> go (i + 1)
      | c -> c
  in
  go 0

let hash_key attrs values =
  Value.tuple (List.map2 (fun a v -> (a, v)) attrs (Array.to_list values))

let key_of_row attrs row =
  Array.of_list (List.map (fun a -> Value.field row a) attrs)

(* Build the index payload from the table's current rows.  One tick of
   "idx_build" per row; the build happens at declaration and once after
   each invalidation, so steady-state lookups pay only probes. *)
let build t idx =
  let tbl = find t idx.idx_table in
  let rs = tbl.rows in
  Njq_obs.Metrics.incr ~n:tbl.card c_idx_build;
  match idx.idx_kind with
  | Hash_index ->
    let tbl = VH.create (max 16 tbl.card) in
    List.iter
      (fun row ->
        let k = hash_key idx.idx_attrs (key_of_row idx.idx_attrs row) in
        match VH.find_opt tbl k with
        | Some bucket -> VH.replace tbl k (row :: bucket)
        | None -> VH.add tbl k [ row ])
      rs;
    (* Buckets were consed in reverse; restore canonical row order. *)
    VH.filter_map_inplace (fun _ bucket -> Some (List.rev bucket)) tbl;
    Dhash tbl
  | Sorted_index ->
    let keyed = List.map (fun row -> (key_of_row idx.idx_attrs row, row)) rs in
    (* Stable sort: rows with equal keys keep their canonical order. *)
    let sorted =
      List.stable_sort (fun (a, _) (b, _) -> compare_keys a b) keyed
    in
    Dsorted (Array.of_list sorted)

let ensure_built t idx =
  match Atomic.get idx.idx_data with
  | Some d -> d
  | None ->
    let d = build t idx in
    (* Publish whole; a racing domain may build an identical copy. *)
    Atomic.set idx.idx_data (Some d);
    d

let default_index_name ~table ~kind ~attrs =
  Printf.sprintf "%s_%s_%s" table (String.concat "_" attrs) (kind_name kind)

let create_index t ?name ~table ~kind ~attrs () =
  if attrs = [] then invalid_arg "Catalog.create_index: no attributes";
  if List.sort_uniq String.compare attrs <> List.sort String.compare attrs then
    invalid_arg "Catalog.create_index: duplicate attribute";
  let tbl = find t table in
  let fields =
    match tbl.row_type with
    | Vtype.TTuple fields -> List.map fst fields
    | _ -> []
  in
  List.iter
    (fun a ->
      if not (List.mem a fields) then
        invalid_arg
          (Printf.sprintf "Catalog.create_index: %s has no attribute %s" table a))
    attrs;
  let name =
    match name with Some n -> n | None -> default_index_name ~table ~kind ~attrs
  in
  if Hashtbl.mem t.indexes name then
    invalid_arg (Printf.sprintf "Catalog.create_index: %s already exists" name);
  let idx =
    { idx_name = name; idx_table = table; idx_attrs = attrs; idx_kind = kind;
      idx_data = Atomic.make None }
  in
  Hashtbl.add t.indexes name idx;
  (* Index availability changes what the planner may emit: cached plans
     derived before this declaration are stale. *)
  t.epoch <- t.epoch + 1;
  ignore (ensure_built t idx);
  name

let find_index t name = Hashtbl.find_opt t.indexes name

let indexes_on t table =
  Hashtbl.fold
    (fun _ idx acc -> if String.equal idx.idx_table table then idx :: acc else acc)
    t.indexes []
  |> List.sort (fun a b -> String.compare a.idx_name b.idx_name)

let has_indexes t = Hashtbl.length t.indexes > 0

let build_indexes t table = List.iter (fun i -> ignore (ensure_built t i)) (indexes_on t table)

(* First position in the key-sorted array whose key satisfies [above]
   (monotone: false then true). *)
let partition_point arr above =
  let lo = ref 0 and hi = ref (Array.length arr) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    let k, _ = arr.(mid) in
    if above k then hi := mid else lo := mid + 1
  done;
  !lo

let index_lookup_eq t idx (key : Value.t array) =
  if Array.length key <> List.length idx.idx_attrs then
    invalid_arg "Catalog.index_lookup_eq: key arity mismatch";
  Njq_obs.Metrics.incr c_idx_probe;
  let matched =
    match ensure_built t idx with
    | Dhash tbl ->
      (match VH.find_opt tbl (hash_key idx.idx_attrs key) with
       | Some bucket -> bucket
       | None -> [])
    | Dsorted arr ->
      let start = partition_point arr (fun k -> compare_keys k key >= 0) in
      let stop = partition_point arr (fun k -> compare_keys k key > 0) in
      let acc = ref [] in
      for i = stop - 1 downto start do
        acc := snd arr.(i) :: !acc
      done;
      !acc
  in
  Njq_obs.Metrics.incr ~n:(List.length matched) c_idx_row;
  matched

let index_lookup_range t idx ~lo ~hi =
  (match idx.idx_kind with
   | Sorted_index -> ()
   | Hash_index ->
     invalid_arg "Catalog.index_lookup_range: range lookup needs a sorted index");
  Njq_obs.Metrics.incr c_idx_probe;
  let matched =
    match ensure_built t idx with
    | Dhash _ -> assert false
    | Dsorted arr ->
      let first k = k.(0) in
      let start =
        match lo with
        | None -> 0
        | Some (v, inclusive) ->
          let above =
            if inclusive then fun k -> Value.compare (first k) v >= 0
            else fun k -> Value.compare (first k) v > 0
          in
          partition_point arr above
      in
      let stop =
        match hi with
        | None -> Array.length arr
        | Some (v, inclusive) ->
          let above =
            if inclusive then fun k -> Value.compare (first k) v > 0
            else fun k -> Value.compare (first k) v >= 0
          in
          partition_point arr above
      in
      let acc = ref [] in
      for i = stop - 1 downto start do
        acc := snd arr.(i) :: !acc
      done;
      (* The segment is ordered by key; restore canonical row order so a
         range scan emits exactly the rows of the filtered scan it
         replaces, in the same order. *)
      List.sort Value.compare !acc
  in
  Njq_obs.Metrics.incr ~n:(List.length matched) c_idx_row;
  matched
