(** Types of ADL complex objects: atomic types, object identity, typed
    class references, tuples and sets.  Tuple field lists are sorted by
    name, so type equality is structural. *)

type t =
  | TAny  (** wildcard: element type of an empty set literal *)
  | TBool
  | TInt
  | TFloat
  | TString
  | TDate
  | TOid
  | TRef of string  (** reference into the named class extent *)
  | TTuple of (string * t) list  (** invariant: sorted by field name *)
  | TSet of t

exception Type_error of string

(** [type_error fmt ...] raises {!Type_error} with a formatted message. *)
val type_error : ('a, Format.formatter, unit, 'b) format4 -> 'a

(** {1 Construction} *)

(** [tuple fields] sorts by name; raises on duplicates. *)
val tuple : (string * t) list -> t

val set : t -> t

(** {1 Comparison} *)

(** Strict structural equality ([TAny] equals only [TAny]). *)
val equal : t -> t -> bool

(** Compatibility with [TAny] as a wildcard and [TRef]/[TOid]
    interchangeable — the notion of "same type" used by the typechecker. *)
val compat : t -> t -> bool

(** Least upper bound of two {!compat} types, preferring the side that is
    not [TAny]. *)
val lub : t -> t -> t

(** {1 Shape queries} *)

(** Fields of a tuple type; raises otherwise. *)
val fields : t -> (string * t) list

(** The paper's SCH function: top-level attribute names of a table type
    (a set-of-tuples type). *)
val sch : t -> string list

val field : t -> string -> t
val has_field : t -> string -> bool
val project : t -> string list -> t
val project_away : t -> string list -> t

(** Concatenation of tuple types; fields must be disjoint. *)
val concat : t -> t -> t

(** {1 Values and types} *)

(** Infer the type of a closed value.  Raises on NULL, empty sets and
    heterogeneous sets. *)
val of_value : Value.t -> t

(** [check_value ty v]: does [v] inhabit [ty]?  Accepts empty sets at any
    set type; [TRef _] accepts any oid. *)
val check_value : t -> Value.t -> bool

(** {1 Printing} *)

val pp : Format.formatter -> t -> unit
val show : t -> string
