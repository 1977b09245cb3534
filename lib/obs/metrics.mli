(** The metrics registry: named counters and histograms with
    pre-interned handles, and {!measure}, the one measurement of a run.

    Interning a name once yields a handle holding the mutable cell
    directly, so hot paths pay one flag read and one add per tick instead
    of a string-hashtable probe.  The registry is process-global.

    Domain safety: sequential execution increments the main cells
    directly; inside a parallel section (bracketed by {!enter_parallel} /
    {!exit_parallel}, which only the engine's domain pool calls) every
    increment lands in a per-domain shard, and each participating domain
    flushes its shard ({!flush_local}) into the main cells before the pool
    join returns — totals stay exact under parallelism. *)

type counter

(** Intern a counter: the same name always returns the same handle. *)
val counter : string -> counter

val incr : ?n:int -> counter -> unit
val value : counter -> int

(** [get name] is the value of the counter named [name]. *)
val get : string -> int

(** {2 Histograms} *)

type hist

(** Intern a histogram: the same name always returns the same handle. *)
val histogram : string -> hist

(** Record [n] observations of a value.  Sequentially this writes the
    main histogram; inside a parallel section it lands in the calling
    domain's shard and merges exactly at flush. *)
val observe : ?n:int -> hist -> int -> unit

(** The merged main histogram.  Read it only outside parallel sections. *)
val hist_value : hist -> Histogram.t

(** Zero all counters (handles stay interned). *)
val reset_counters : unit -> unit

(** {!reset_counters} and zero all histograms. *)
val reset : unit -> unit

(** Non-zero counters, sorted by name. *)
val counter_snapshot : unit -> (string * int) list

(** A counter list as [name=value] pairs separated by plain spaces, on
    one line. *)
val pp_counts : Format.formatter -> (string * int) list -> unit

(** {2 Measuring a run} *)

type usage = {
  work : (string * int) list;
      (** Counter deltas, sorted by name, zeros left out. *)
  minor_words : float;  (** Minor-heap words allocated, on every domain. *)
  major_words : float;
      (** Major-heap words allocated (promotions included), on every
          domain. *)
  wall_ns : int;  (** Monotonic wall time. *)
  cpu_s : float;  (** Process CPU time. *)
}

val zero : usage
val add : usage -> usage -> usage
val sub : usage -> usage -> usage

(** [measure f] runs [f] and returns its result with what it used: the
    counters it ticked (the registry is not zeroed, so counters kept
    across runs, such as the plan cache's hits, survive), the words
    allocated by the calling domain and by the pool's workers in the
    jobs it ran, and its wall and CPU time.  Measurements nest. *)
val measure : (unit -> 'a) -> 'a * usage

(** {2 Parallel sections}

    For the engine's domain pool only.  While armed, increments and
    observations on every domain (including the main one) accumulate in
    domain-local shards instead of the main cells. *)

(** Arm the per-domain redirect.  Call from the main domain, before any
    worker starts on the job. *)
val enter_parallel : unit -> unit

(** Disarm the redirect and flush the calling (main) domain's shard. *)
val exit_parallel : unit -> unit

(** Flush the calling domain's pending deltas into the main cells (takes
    the registry mutex).  Each pool participant calls this when it
    finishes its share of a job. *)
val flush_local : unit -> unit

(** [worker_share f] runs a pool worker's share of a job and adds the
    words the calling domain allocated in it to what {!measure} reports.
    The worker must call it before the pool join returns. *)
val worker_share : (unit -> unit) -> unit
