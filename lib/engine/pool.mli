(** A reusable domain pool for the engine's parallel operators.

    Workers are spawned once and reused across every parallel operator of
    every query; the main domain always participates, so a configuration
    of [k] domains spawns [k - 1] workers.  A job is a batch of
    independent, index-addressed tasks claimed morsel-style via an atomic
    cursor; each participant flushes its metrics shard before the join, so
    {!Njq_obs.Metrics} totals are exact when {!run} returns. *)

(** The configured domain count (>= 1).  Initialized from the
    [NJQ_DOMAINS] environment variable (absent/invalid means 1). *)
val domains : unit -> int

(** Set the configured domain count (clamped to >= 1).  Growing spawns
    missing workers lazily on the next parallel {!run}; shrinking joins
    every worker, and the next parallel {!run} spawns the smaller set.
    Call it from the main domain, between jobs. *)
val set_domains : int -> unit

(** Worker domains alive now (the main domain not counted). *)
val live_workers : unit -> int

(** The domain count [NJQ_DOMAINS] requests, ignoring {!set_domains}. *)
val default_domains : unit -> int

(** [run n f] computes [[| f 0; ...; f (n-1) |]], distributing tasks over
    the configured domains.  Degrades to a plain sequential loop — no
    locks, no metric shards, bit-identical to a sequential engine — when
    [n <= 1], when [domains () <= 1], when called from off the main
    domain, or when called from inside a task (nested parallelism).
    If a task raises, the batch is drained and the first exception is
    re-raised here after all participants have parked. *)
val run : int -> (int -> 'a) -> 'a array
