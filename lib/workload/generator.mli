(** Deterministic, scalable generator for the paper's
    supplier–part–delivery database (Section 2), plus abstract X/Y tables
    in the shape of Figures 1-2. *)

open Njq_adl

type config = {
  seed : int;
  parts : int;
  suppliers : int;
  deliveries : int;
  fanout : int;  (** average size of parts_supplied *)
  supply_fanout : int;  (** average size of a delivery's supply set *)
  dangling_rate : float;  (** fraction of dangling part references *)
  empty_rate : float;  (** fraction of suppliers with empty parts *)
}

val default_config : config

(** Configuration scaled to roughly [n] rows per extent. *)
val scaled : ?seed:int -> int -> config

(** Row types of the three extents (matching
    [Njq_oosql.Schema.supplier_part]). *)

val part_row_type : Vtype.t
val supplier_row_type : Vtype.t
val delivery_row_type : Vtype.t

type db = {
  catalog : Catalog.t;
  part_oids : int array;
  supplier_oids : int array;
}

(** Catalog only. *)
val catalog : config -> Catalog.t

(** Abstract X(a, c:{int}) / Y(d, e) tables, scaled to [n] rows each, with
    [empty_rate] of the X rows carrying an empty set. *)
val xy_catalog : ?seed:int -> ?fanout:int -> ?empty_rate:float -> int -> Catalog.t
