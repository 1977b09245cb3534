(** Table statistics: per-attribute distinct counts (NDV) and integer value
    bounds, computed by scanning each extent once.  Consumed by the cost
    model ({!Cost}) for equality and join-key selectivities. *)

open Njq_adl

type column_stats = {
  ndv : int;  (** number of distinct values *)
  lo : int option;  (** minimum, for int/date/oid-valued attributes *)
  hi : int option;
}

type t

(** Scan every extent of the catalog and collect statistics in a single
    pass per table (all column accumulators updated per row); the pass
    also force-builds any unbuilt catalog indexes. *)
val analyze : Catalog.t -> t

(** Like {!analyze}, but memoized per catalog ({!Catalog.id}) and valid
    for one catalog epoch.  After an [add_table]/[set_rows]/[create_index]
    the next call rescans only the tables whose {!Catalog.table_epoch}
    moved, keeping every other table's statistics (the same records), and
    still force-builds unbuilt indexes on every table.  [~refresh:true]
    rescans every table. *)
val cached : ?refresh:bool -> Catalog.t -> t

val column : t -> table:string -> attr:string -> column_stats option
val ndv : t -> table:string -> attr:string -> int option
val cardinality : t -> string -> int option

(** 1/NDV for an equality with a constant, when known. *)
val eq_selectivity : t -> table:string -> attr:string -> float option

(** The textbook [1 / max(NDV_l, NDV_r)] for an equi key. *)
val join_selectivity :
  t -> left_table:string -> left_attr:string -> right_table:string ->
  right_attr:string -> float option

val pp : Format.formatter -> t -> unit
