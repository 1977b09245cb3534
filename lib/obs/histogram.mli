(** Log-bucketed (HDR-style) histograms for latency/allocation
    distributions: ~2 significant decimal digits of relative precision,
    constant memory, allocation-free recording, and exact (lossless)
    merging — merge-of-shards equals one histogram over the concatenated
    samples, bucket for bucket.

    Values below 256 land in unit-width buckets; beyond that each
    power-of-two octave splits into 128 sub-buckets, so every bucket's
    relative width is at most 1/128.  The exact min and max are tracked
    alongside, and percentile reads clamp into them. *)

type t

val create : unit -> t

(** Zero every bucket and the aggregates; the bucket array is reused. *)
val clear : t -> unit

(** Record one (or [n]) observations of a value; negatives clamp to 0.
    Allocation-free: safe on per-query and per-task hot paths. *)
val record : ?n:int -> t -> int -> unit

val count : t -> int
val sum : t -> int

(** Exact smallest recorded value (0 when empty). *)
val min_value : t -> int

(** Exact largest recorded value (0 when empty). *)
val max_value : t -> int

(** [percentile t q] for [q] in [0,1]: the upper edge of the bucket
    holding the rank-[ceil q*count] sample, clamped into
    [[min_value, max_value]].  Within one bucket width of the true order
    statistic (see {!bucket_range}); 0 when empty. *)
val percentile : t -> float -> int

val p50 : t -> int
val p90 : t -> int
val p99 : t -> int

(** Pointwise bucket addition into [into] (exact, associative,
    commutative). *)
val merge_into : into:t -> t -> unit

(** Bucket-exact structural equality. *)
val equal : t -> t -> bool

(** Inclusive [(lo, hi)] bounds of the bucket holding a value — the
    window within which a percentile whose true value is [v] is
    reported. *)
val bucket_range : int -> int * int
