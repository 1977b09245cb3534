(* Log-bucketed (HDR-style) histograms for latency and allocation
   distributions.

   The serving layer's percentiles cannot come from a list of raw samples
   — a histogram must absorb one record per query (or per parallel task)
   at memory cost independent of the sample count, and two histograms
   built on different domains must merge into exactly the histogram a
   single recorder would have produced.  This is the paper's nested-loop
   to set-at-a-time move replayed on telemetry: per-row ticks collapse
   into one aggregated distribution that is queried wholesale.

   Bucket layout.  Values [0, 256) land in unit-width buckets (exact).
   Past that, each power-of-two octave splits into 128 sub-buckets, so a
   bucket spanning [lo, lo + 2^shift) has lo >= 128 * 2^shift and the
   relative width of any bucket is at most 1/128 < 1% — about two
   significant decimal digits, the HdrHistogram discipline.  A 63-bit
   value space needs 256 + 55 * 128 = 7296 buckets (~57 KiB of ints),
   allocated once at [create]; the total count, sum, and the exact min
   and max ride alongside, so [max] (and [min]) are always exact and
   percentile reads clamp into [min, max].

   [record] is allocation-free: one array load/store, four scalar field
   writes, and a tail-recursive bit scan — no boxing, no refs — so it can
   sit on a per-query (or per-task) hot path under a Gc-delta test.

   Merging is pointwise bucket addition; it is associative and
   commutative, and merge-of-shards equals one-histogram-over-all-samples
   *exactly* (not approximately), which is what lets per-domain shards
   ([Metrics.observe]) flush at pool join with no loss. *)

let sub_bits = 8
let sub_count = 1 lsl sub_bits (* 256: unit buckets below this *)
let half = sub_count / 2

(* Highest set bit position of [v] >= 1 (msb 1 = 0). *)
let rec msb_pos_from v m = if v = 0 then m else msb_pos_from (v lsr 1) (m + 1)
let msb_pos v = msb_pos_from v (-1)

(* 62 is the msb position of max_int on 64-bit OCaml. *)
let nbuckets = sub_count + ((62 - sub_bits + 1) * half)

(* Bucket index of a value; negatives clamp to bucket 0. *)
let index v =
  if v < sub_count then if v < 0 then 0 else v
  else
    let msb = msb_pos v in
    let shift = msb - sub_bits + 1 in
    sub_count + ((msb - sub_bits) * half) + ((v lsr shift) - half)

(* Inclusive [lo, hi] span of bucket [i] — the bound within which any
   percentile read is exact. *)
let bucket_span i =
  if i < sub_count then (i, i)
  else
    let oct = (i - sub_count) / half in
    let off = (i - sub_count) mod half in
    let shift = oct + 1 in
    let lo = (half + off) lsl shift in
    (lo, lo + (1 lsl shift) - 1)

(* The bounds of the bucket holding [v]: a reported percentile whose true
   value is [v] lies within these. *)
let bucket_range v = bucket_span (index v)

type t = {
  counts : int array;
  mutable count : int;
  mutable sum : int;
  mutable vmin : int; (* exact; max_int when empty *)
  mutable vmax : int; (* exact; -1 when empty *)
}

let create () =
  { counts = Array.make nbuckets 0; count = 0; sum = 0; vmin = max_int;
    vmax = -1 }

let clear t =
  Array.fill t.counts 0 nbuckets 0;
  t.count <- 0;
  t.sum <- 0;
  t.vmin <- max_int;
  t.vmax <- -1

let record ?(n = 1) t v =
  if n > 0 then begin
    let v = if v < 0 then 0 else v in
    let i = index v in
    t.counts.(i) <- t.counts.(i) + n;
    t.count <- t.count + n;
    t.sum <- t.sum + (v * n);
    if v < t.vmin then t.vmin <- v;
    if v > t.vmax then t.vmax <- v
  end

let count t = t.count
let sum t = t.sum
let min_value t = if t.count = 0 then 0 else t.vmin
let max_value t = if t.count = 0 then 0 else t.vmax

(* Value at quantile [q] in [0, 1]: the upper edge of the bucket holding
   the sample of rank ceil(q * count) (exact counting, no interpolation),
   clamped into the exact [min, max].  The result is within one bucket
   width of the true order statistic. *)
let percentile t q =
  if t.count = 0 then 0
  else begin
    let q = if q < 0.0 then 0.0 else if q > 1.0 then 1.0 else q in
    let rank =
      let r = int_of_float (ceil (q *. float_of_int t.count)) in
      if r < 1 then 1 else if r > t.count then t.count else r
    in
    let i = ref 0 in
    let cum = ref 0 in
    while !cum < rank && !i < nbuckets do
      cum := !cum + t.counts.(!i);
      incr i
    done;
    let _, hi = bucket_span (!i - 1) in
    Stdlib.min t.vmax (Stdlib.max t.vmin hi)
  end

let p50 t = percentile t 0.50
let p90 t = percentile t 0.90
let p99 t = percentile t 0.99

let merge_into ~into src =
  Array.iteri
    (fun i c -> if c <> 0 then into.counts.(i) <- into.counts.(i) + c)
    src.counts;
  into.count <- into.count + src.count;
  into.sum <- into.sum + src.sum;
  if src.vmin < into.vmin then into.vmin <- src.vmin;
  if src.vmax > into.vmax then into.vmax <- src.vmax

let equal a b =
  a.count = b.count && a.sum = b.sum && a.vmin = b.vmin && a.vmax = b.vmax
  && a.counts = b.counts
