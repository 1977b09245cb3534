(** Complex-object values: atoms, object identifiers, tuples and sets,
    closed under nesting (the paper's data model, Section 3).

    Canonical representation: tuple fields are sorted by name, sets are
    sorted and duplicate-free under {!compare}.  Consequently structural
    equality coincides with semantic tuple/set equality. *)

type t =
  | VNull  (** outer-join padding only; never produced by queries *)
  | VBool of bool
  | VInt of int
  | VFloat of float
  | VString of string
  | VDate of int  (** calendar date as [yyyymmdd] *)
  | VOid of int  (** object identifier *)
  | VTuple of (string * t) list  (** invariant: fields sorted by name *)
  | VSet of t list  (** invariant: sorted, duplicate-free *)

(** Raised by accessors and operators applied to values of the wrong
    shape. *)
exception Type_error of string

(** [type_error fmt ...] raises {!Type_error} with a formatted message. *)
val type_error : ('a, Format.formatter, unit, 'b) format4 -> 'a

(** {1 Ordering} *)

(** Total structural order; arbitrary but fixed across value shapes. *)
val compare : t -> t -> int

val equal : t -> t -> bool

(** Full-depth structural hash consistent with {!equal} (no traversal
    limits, so long rows do not collide).  Hashes of set values are
    memoized in a fixed-size, direct-mapped, domain-local cache keyed on
    physical identity, so repeatedly hashing rows that share set-valued
    attributes — the common case in the physical engine's hash tables and
    dedup — costs one slot probe, not a traversal, and the cache never
    grows. *)
val hash : t -> int

(** {1 Construction (canonicalizing)} *)

(** [tuple fields] sorts the fields by name.  Raises {!Type_error} on
    duplicate field names. *)
val tuple : (string * t) list -> t

(** [set elements] sorts and deduplicates.  A list already strictly
    ascending under {!compare} is kept as it is ([==]), after one linear
    check. *)
val set : t list -> t

val empty_set : t
val bool : bool -> t
val int : int -> t
val float : float -> t
val string : string -> t
val date : int -> t
val oid : int -> t

(** {1 Accessors} *)

val as_bool : t -> bool
val as_int : t -> int
val as_set : t -> t list
val as_tuple : t -> (string * t) list
val as_oid : t -> int
val is_null : t -> bool

(** [field v a] is tuple subscription for one attribute ([v.a]).  This and
    every other name lookup in this module compares names with [==], then
    [String.equal]. *)
val field : t -> string -> t

(** [field v a] without raising: [None] when [v] is not a tuple or has no
    field [a]. *)
val field_opt : t -> string -> t option

val has_field : t -> string -> bool

(** Field names of a tuple, in sorted order. *)
val field_names : t -> string list

(** {1 Tuple operators} *)

(** [project v attrs] is the paper's tuple subscription [v\[a1,...,an\]]. *)
val project : t -> string list -> t

(** [project_away v attrs] keeps the complement fields. *)
val project_away : t -> string list -> t

(** {2 Trusted fast paths (engine batches)}

    These skip the canonicalizing work of {!tuple} and {!project} under
    invariants the physical engine establishes once per operator instead of
    once per row. *)

(** [of_sorted_fields fields] builds a tuple {e without} sorting or
    checking: the caller guarantees [fields] is sorted by name and
    duplicate-free.  Violating the invariant breaks canonical equality. *)
val of_sorted_fields : (string * t) list -> t

(** [project_sorted v attrs] is {!project} for an [attrs] list that is
    already sorted and duplicate-free: one merge walk, no per-field assoc
    scans, no re-sort.  Raises {!Type_error} on a missing field, reporting
    the first missing attribute in sorted (not argument) order. *)
val project_sorted : t -> string list -> t

(** Tuple concatenation (the paper's [o]); fields must be disjoint. *)
val concat : t -> t -> t

(** The paper's [except] operator: update existing fields and/or extend the
    tuple with new ones. *)
val except : t -> (string * t) list -> t

(** [rename pairs v] renames each field of tuple [v] listed in [pairs] as
    [(old, new)] and re-sorts the fields (the paper's rename on one row).
    Raises {!Type_error} on a non-tuple or on a resulting duplicate name. *)
val rename : (string * string) list -> t -> t

(** {1 Set operators} *)

val union : t -> t -> t
val inter : t -> t -> t
val diff : t -> t -> t

(** [mem x s]: is [x] an element of set [s]? *)
val mem : t -> t -> bool

val subset_eq : t -> t -> bool

(** Proper subset. *)
val subset : t -> t -> bool

val set_size : t -> int

(** Multiple union — the paper's flatten (semantics item 1). *)
val flatten : t -> t

(** {1 Printing} *)

val pp : Format.formatter -> t -> unit
val show : t -> string
