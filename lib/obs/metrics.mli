(** The metrics registry: named counters and histograms with
    pre-interned handles.

    Interning a name once yields a handle holding the mutable cell
    directly, so hot paths pay one flag read and one add per tick instead
    of a string-hashtable probe.  The registry is process-global; the
    legacy {!Njq_adl.Counters} facade delegates here.

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

(** {!reset_counters}, zero all histograms, and clear the per-domain
    parallel-work attribution table. *)
val reset : unit -> unit

(** Non-zero counters, sorted by name. *)
val counter_snapshot : unit -> (string * int) list

(** Parallel-section counter deltas attributed per domain id, as
    [(domain_id, [(counter, delta)])] with both levels sorted.
    Sequential main-domain ticks are not attributed — summing one
    counter over all domains gives its sharded (parallel) contribution
    to the main total, not the whole total. *)
val counter_snapshot_by_domain : unit -> (int * (string * int) list) list

(** Run with the registry ignoring increments and observations. *)
val with_disabled : (unit -> 'a) -> 'a

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
