(** Deterministic splitmix64 pseudo-random number generator.

    All workload generation derives randomness from this module, so every
    experiment is reproducible from a seed independent of the OCaml stdlib
    [Random] implementation. *)

type t

val create : int -> t

(** Uniform over [0, bound); [bound] must be positive. *)
val int : t -> int -> int

(** Uniform over the inclusive range. *)
val int_in_range : t -> lo:int -> hi:int -> int

(** Uniform over [0, 1). *)
val float : t -> float

(** Bernoulli draw with probability [p]. *)
val chance : t -> float -> bool

val pick_array : t -> 'a array -> 'a

(** Fisher–Yates shuffle. *)
val shuffle : t -> 'a list -> 'a list

(** [sample t k xs]: [k] distinct elements of [xs] (all of them if [k]
    exceeds the length). *)
val sample : t -> int -> 'a list -> 'a list
