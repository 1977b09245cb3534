(** The catalog: named base tables (class extents) with row types and
    stored rows, plus lazily built oid indexes supporting the
    materialize/assembly operator.

    Per the paper's logical design, every class extension is a table whose
    rows carry an [oid] field; class references are oid pointers into the
    referenced extent. *)

(** An extent's oid index: each oid's position in the extent's
    {!rows_array}, and per dereferenced attribute a column of its values
    at the same positions. *)
type oid_index

type table = private {
  name : string;
  row_type : Vtype.t;  (** a tuple type *)
  mutable rows : Value.t list;  (** canonical: sorted, duplicate-free *)
  mutable card : int;
      (** [List.length rows], written with them by {!add_table} and
          {!set_rows} only *)
  mutable changed : int;
      (** catalog epoch of the table's last {!add_table} or {!set_rows} *)
  oid_index : oid_index option Atomic.t;
      (** lazy index on the [oid] field and its attribute columns,
          invalidated by {!set_rows}; published atomically for concurrent
          deref from pool domains *)
  rows_arr : Value.t array option Atomic.t;
      (** lazy array view of [rows] backing batched scans, invalidated by
          {!set_rows}; published atomically, immutable after publish *)
}

type t

(** Kind of attribute index: hash tables answer equality lookups, sorted
    arrays answer equality and range lookups (on their leading attribute). *)
type index_kind = Hash_index | Sorted_index

(** An attribute index over a base table.  Built lazily from the table's
    rows and invalidated by {!set_rows}; the built structure is immutable
    and published atomically (same discipline as the oid index), so pool
    domains may probe concurrently. *)
type index

exception Unknown_table of string

val create : unit -> t

(** Unique per catalog instance; keys external per-catalog caches. *)
val id : t -> int

(** Monotonic change counter, bumped by {!add_table}, {!set_rows} and
    {!create_index}.  Plan and statistics caches compare epochs to detect
    staleness without diffing catalog contents. *)
val epoch : t -> int

(** Allocate a fresh object identifier (unique per catalog). *)
val fresh_oid : t -> int

(** Raise the oid counter to at least [n] (used when reloading a saved
    catalog, so identifiers are never reused). *)
val ensure_oid_above : t -> int -> unit

(** Why {!add_table} would refuse the table: its name is taken, or its
    row type is not a tuple type.  The catalog loaders report it as their
    own error. *)
val table_error : t -> name:string -> row_type:Vtype.t -> string option

(** [add_table t ~name ~row_type rows] registers an extent; rows are
    canonicalized.  Raises [Invalid_argument] with {!table_error}'s
    message if it refuses the table. *)
val add_table : t -> name:string -> row_type:Vtype.t -> Value.t list -> unit

val find_opt : t -> string -> table option
val find : t -> string -> table
val mem : t -> string -> bool
val rows : t -> string -> Value.t list

(** The {!epoch} at which the named table was last added or had its rows
    replaced ({!set_rows}).  Lets a statistics cache redo only the tables
    that changed since it last looked. *)
val table_epoch : t -> string -> int

(** Array view of the table's canonical rows, cached until the next
    {!set_rows}.  The batched executor cuts scan batches out of this shared
    array; callers must never mutate it. *)
val rows_array : t -> string -> Value.t array

val row_type : t -> string -> Vtype.t

(** The type of the table as a whole: a set of its row type. *)
val table_type : t -> string -> Vtype.t

(** Replace a table's rows (canonicalizes, drops the oid index with its
    columns and every attribute index over the table; bumps the epoch). *)
val set_rows : t -> string -> Value.t list -> unit

(** All extent names, sorted. *)
val table_names : t -> string list

(** Number of rows in the named extent, in constant time. *)
val cardinality : t -> string -> int

(** Dereference an oid into the named extent via the (lazily built) oid
    index, ticking the "oid_lookup" counter: the row at the oid's position
    in {!rows_array}.  Raises [Value.Type_error] on a non-oid and on a
    dangling reference.  [deref t name] resolves the extent's index once
    (raising {!Unknown_table} there); apply it to many oids. *)
val deref : t -> string -> Value.t -> Value.t

(** [deref_field t name a oid] is [Value.field (deref t name oid) a], with
    the same tick and the same exceptions, read from the extent's column
    for [a]: [deref_field t name a] resolves the index and builds the
    column on first use, after which each dereference is one position
    lookup and one array read. *)
val deref_field : t -> string -> string -> Value.t -> Value.t

(** Like {!deref} (one ["oid_lookup"] tick) but [None] on dangling
    references and on values that are not oids, without raising.
    [deref_opt t name] resolves the extent's oid index once; apply it to
    many oids to probe without looking the index up again. *)
val deref_opt : t -> string -> Value.t -> Value.t option

(** Is ["oid"] a key of the named extent: does every row carry an oid, no
    two rows the same one?  Decided once per table when its oid index is
    built (lazily, here or by the first {!deref}); {!set_rows} resets the
    decision.  The executor uses it to prove rows distinct. *)
val oid_key : t -> string -> bool

(** {1 Attribute indexes} *)

(** [create_index t ?name ~table ~kind ~attrs ()] declares (and builds,
    from the table's current rows) an index over [attrs] in the given
    order, returning its name (default ["table_attrs_kind"]).  Bumps the
    epoch.  Raises [Invalid_argument] on an unknown attribute, duplicate
    attributes, an empty attribute list, or a taken index name. *)
val create_index :
  t ->
  ?name:string ->
  table:string ->
  kind:index_kind ->
  attrs:string list ->
  unit ->
  string

val find_index : t -> string -> index option

(** Indexes declared over the named table, sorted by index name. *)
val indexes_on : t -> string -> index list

(** Are any indexes declared at all?  (Planner fast path.) *)
val has_indexes : t -> bool

(** Force-build any unbuilt indexes over the named table (e.g. to fold the
    build into a statistics pass already touching every row). *)
val build_indexes : t -> string -> unit

val index_name : index -> string
val index_attrs : index -> string list
val index_kind : index -> index_kind

(** Point lookup: rows whose indexed attributes equal [key] (one value per
    declared attribute, in declared order), in canonical row order — the
    exact list a filtered scan would produce.  Works on both kinds.  Ticks
    "idx_probe" once and "idx_row" per row returned. *)
val index_lookup_eq : t -> index -> Value.t array -> Value.t list

(** Range lookup on the leading attribute of a sorted index.  Bounds are
    [(value, inclusive)]; [None] means unbounded.  Rows come back in
    canonical row order.  Raises [Invalid_argument] on a hash index. *)
val index_lookup_range :
  t ->
  index ->
  lo:(Value.t * bool) option ->
  hi:(Value.t * bool) option ->
  Value.t list
