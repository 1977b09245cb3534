(** Compact binary codec for {!Njq_adl.Value.t} rows: length-prefixed
    records with varint ints and per-stream string interning.  Backs the
    executor's spill files (join partitions, PNHL segments) and the NJQC
    binary catalog format.

    Streams are stateful in both directions (the intern pool grows as
    records are written); records must be decoded in encode order within
    one stream. *)

open Njq_adl

(** Malformed or truncated input. *)
exception Corrupt of string

(** {1 Record codec} *)

type encoder

(** Fresh encoder with an empty intern pool. *)
val encoder : unit -> encoder

(** Append one length-prefixed record to the buffer; returns the number of
    bytes appended (length prefix included). *)
val encode_record : encoder -> Buffer.t -> Value.t -> int

type decoder

(** Decoder over [data.[pos .. limit)] (defaults: the whole string) with an
    empty intern pool. *)
val decoder : ?pos:int -> ?limit:int -> string -> decoder

(** Next record, or [None] cleanly at the stream limit.  Raises {!Corrupt}
    on a torn record. *)
val decode_record : decoder -> Value.t option

(** {1 Spill files}

    Temp files of records under [NJQ_TMPDIR] (default: the system temp
    directory).  Every live spill file is tracked in a registry swept by an
    [at_exit] hook, so exceptions or a killed process leave no orphans;
    operators additionally {!spill_remove} their files as soon as a
    partition has been consumed. *)

type spill

(** Directory spill files are created in. *)
val temp_dir : unit -> string

(** Create an empty spill file.  It holds no open descriptor: rows are
    staged in memory and appended to the file 64 KiB at a time. *)
val spill_create : ?prefix:string -> unit -> spill

(** Append one row; returns the encoded size in bytes.  Raises
    [Invalid_argument] after the spill has been read back or removed. *)
val spill_add : spill -> Value.t -> int

val spill_path : spill -> string

(** Rows written so far. *)
val spill_rows : spill -> int

(** Bytes written so far (record length prefixes included). *)
val spill_bytes : spill -> int

(** Seal the writer and read all rows back, in write order. *)
val spill_read : spill -> Value.t list

(** Seal, drop the rows still staged, unlink and unregister; ignores a
    missing file.  Idempotent: only the first call unlinks, so a second
    call (an operator's cleanup after a task already removed the file)
    never deletes a file that has since taken the same temp name. *)
val spill_remove : spill -> unit

(** Spill files currently registered (for hygiene tests). *)
val live_spills : unit -> int

(** {1 NJQC binary catalog format}

    ["NJQC1"] magic, uvarint oid counter and table count, then per table a
    header entry (name, row type string, row count, section byte length)
    followed by the rows as records with a per-table intern pool — the
    section lengths let a reader locate one table without decoding the
    others. *)

val njqc_magic : string

(** Does the file start with ["NJQC"], the magic without its version
    byte?  Such a file is read as NJQC even when short or of another
    version, so {!load_catalog} reports it as {!Corrupt}.  [false] on
    unreadable or shorter files. *)
val is_njqc : string -> bool

val save_catalog : Catalog.t -> string -> unit

(** Raises {!Corrupt} on malformed input (the message does not name the
    file; callers do). *)
val load_catalog : string -> Catalog.t
