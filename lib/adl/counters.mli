(** Named, process-global work counters.

    They compare tuple-oriented and set-oriented query processing
    independently of wall-clock noise: the reference evaluator counts
    parameter evaluations and tuple visits, the engine counts hash
    builds/probes, pair tests, sort comparisons, oid lookups and PNHL
    partitions.  Benchmarks bracket measured regions with {!reset} and read
    {!snapshot}. *)

val tick : ?n:int -> string -> unit
val get : string -> int
val reset : unit -> unit

(** All counters, sorted by name. *)
val snapshot : unit -> (string * int) list

(** Run with counting temporarily disabled. *)
val without_counting : (unit -> 'a) -> 'a

(** [measure f] runs [f] and returns its result with the counters it
    ticked: their deltas, sorted by name, without zeroing the registry. *)
val measure : (unit -> 'a) -> 'a * (string * int) list

val pp_snapshot : Format.formatter -> (string * int) list -> unit
