(** Column batches with selection vectors for the push-based executor.

    A batch is a window of N physical [Value.t] rows flowing through a
    fused pipeline in one push.  Filters mark survivors in a {e selection
    vector} instead of copying rows, testing each live row with the
    filter's compiled predicate ({!keep_rows}).  Rows stay [Value.t]
    throughout: batches materialize back to plain rows at pipeline
    breakers and the result root, so the reference semantics of
    {!Njq_adl.Value} is untouched. *)

open Njq_adl

(** {1 Batch size} *)

(** Rows per batch, 256.  Rows, their order and counter totals do not
    depend on it; tests set it (to at least 1) to exercise singleton and
    ragged batches. *)
val size : int ref

(** {1 Batches}

    Invariants: [rows] is shared and never mutated through the batch;
    [nsel = -1] means no selection yet (all of [off, off+len) live);
    otherwise [sel.(0 .. nsel-1)] holds strictly increasing physical
    indices into [rows].  Selections only shrink ({!keep} compacts in
    place), never grow or reorder. *)
type t = private {
  rows : Value.t array;
  off : int;
  len : int;
  mutable sel : int array;
  mutable nsel : int;
}

(** Zero-copy window over [rows.(off .. off+len-1)]. *)
val view : Value.t array -> off:int -> len:int -> t

val of_array : Value.t array -> t

(** Number of surviving rows. *)
val live : t -> int

(** Iterate surviving rows in physical (hence canonical pipeline) order. *)
val iter : (Value.t -> unit) -> t -> unit

(** [keep b f] filters in place: live position [j] survives iff [f j].
    Positions are tested in order; the selection vector is allocated on
    the first filter and compacted in place thereafter. *)
val keep : t -> (int -> bool) -> unit

(** {!keep} over rows rather than positions. *)
val keep_rows : t -> (Value.t -> bool) -> unit

(** {1 Builders} *)

(** Accumulates produced rows into owned batches of (up to) [!size] rows,
    emitting each as it fills. *)
type builder

val builder : (t -> unit) -> builder
val add : builder -> Value.t -> unit

(** Emit the partial tail batch, if any. *)
val flush : builder -> unit

(** {1 Pre-sized row vector}

    The root materialization sink: pre-sized from the planner's
    cardinality estimate, filled in push order, listed once. *)
module Vec : sig
  type batch := t
  type t

  val create : int -> t

  (** Append all surviving rows of a batch. *)
  val push_batch : t -> batch -> unit

  val to_list : t -> Value.t list
end
