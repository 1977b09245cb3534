(* The metrics registry: named counters and histograms with
   *pre-interned handles*, and [measure], the one measurement of a run.

   A counter is interned once into a handle holding the mutable cell
   directly, so a tick on the engine's hot paths (per probe, per pair,
   per spill) is a field add guarded by one flag read, not a hash of the
   name and a table probe.

   Counters hold plain [int]s (work units); histograms hold latency or
   size distributions.

   Domain safety.  The registry's *main cells* belong to the main domain:
   reads (snapshots) and resets happen there, and so do the hot-path
   increments of sequential execution, which stay a single unsynchronized
   add.  Under the engine's parallel sections ([Njq_engine.Pool]), every
   increment is redirected to a per-domain *shard* — a domain-local table
   of pending deltas keyed by the handle's id — and shards are flushed
   into the main cells (under the registry mutex) when each domain
   finishes its part of the job, before the pool join returns.  Counter
   and histogram totals are therefore exact under parallelism: nothing is
   dropped, double-counted, or torn.  The redirect is armed by
   [enter_parallel]/[exit_parallel], which only the pool calls; the main
   domain also shards while armed, because its increments would otherwise
   race with worker flushes. *)

type counter = { c_id : int; mutable c_value : int }

(* A named latency/allocation distribution.  The main histogram belongs
   to the main domain like counter cells do; sharded observations land in
   per-domain scratch histograms and merge on flush (exact: histogram
   merge is pointwise bucket addition). *)
type hist = { h_id : int; h_main : Histogram.t }

(* Interning and shard flushes synchronize on one mutex.  Hot paths never
   take it: they go through pre-interned handles, and the sharded-add path
   touches only domain-local state. *)
let reg_mu = Mutex.create ()

let with_reg f =
  Mutex.lock reg_mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock reg_mu) f

let counters : (string, counter) Hashtbl.t = Hashtbl.create 64
let hists : (string, hist) Hashtbl.t = Hashtbl.create 16
let next_id = ref 0

let counter name =
  with_reg (fun () ->
      match Hashtbl.find_opt counters name with
      | Some c -> c
      | None ->
        let c = { c_id = !next_id; c_value = 0 } in
        incr next_id;
        Hashtbl.add counters name c;
        c)

let histogram name =
  with_reg (fun () ->
      match Hashtbl.find_opt hists name with
      | Some h -> h
      | None ->
        let h = { h_id = !next_id; h_main = Histogram.create () } in
        incr next_id;
        Hashtbl.add hists name h;
        h)

(* ------------------------------------------------------------------ *)
(* Per-domain shards                                                   *)
(* ------------------------------------------------------------------ *)

type shard_cell =
  | C of counter * int ref
  | H of hist * Histogram.t

(* Pending deltas of this domain, keyed by handle id. *)
let shard_key : (int, shard_cell) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 32)

(* Armed by the pool around parallel sections.  Written only by the main
   domain while no worker runs; workers observe the [true] value through
   the happens-before edge of the pool's job hand-off. *)
let sharded = ref false

let shard_counter_add c n =
  let tbl = Domain.DLS.get shard_key in
  match Hashtbl.find_opt tbl c.c_id with
  | Some (C (_, r)) -> r := !r + n
  | Some _ | None -> Hashtbl.replace tbl c.c_id (C (c, ref n))

let shard_hist_add h v n =
  let tbl = Domain.DLS.get shard_key in
  match Hashtbl.find_opt tbl h.h_id with
  | Some (H (_, scratch)) -> Histogram.record ~n scratch v
  | Some _ | None ->
    let scratch = Histogram.create () in
    Histogram.record ~n scratch v;
    Hashtbl.replace tbl h.h_id (H (h, scratch))

(* Flush this domain's pending deltas into the main cells.  Called by each
   pool participant when it finishes its share of a job — always
   before the pool join returns, so the main domain never reads a cell
   while another domain still holds deltas for it. *)
let flush_local () =
  let tbl = Domain.DLS.get shard_key in
  if Hashtbl.length tbl > 0 then begin
    with_reg (fun () ->
        Hashtbl.iter
          (fun _ cell ->
            match cell with
            | C (c, r) -> c.c_value <- c.c_value + !r
            | H (h, scratch) -> Histogram.merge_into ~into:h.h_main scratch)
          tbl);
    Hashtbl.reset tbl
  end

let enter_parallel () = sharded := true

let exit_parallel () =
  sharded := false;
  flush_local ()

(* ------------------------------------------------------------------ *)
(* Ticks                                                               *)
(* ------------------------------------------------------------------ *)

let incr ?(n = 1) c =
  if not !sharded then c.c_value <- c.c_value + n else shard_counter_add c n

let value c = c.c_value
let get name = value (counter name)

(* Record [v] into a histogram.  Sequentially this writes the main
   histogram (main-domain-only, like counter cells); inside a parallel
   section it lands in the domain's scratch histogram and merges exactly
   on flush. *)
let observe ?(n = 1) h v =
  if not !sharded then Histogram.record ~n h.h_main v
  else shard_hist_add h v n

(* The merged main histogram.  Only read this outside parallel sections
   (shards may still hold samples while one is open). *)
let hist_value h = h.h_main

(* Zero every handle.  Handles stay interned (their identity is the point),
   so snapshots leave out zero-valued entries: they list what was ticked. *)
let reset_counters () = Hashtbl.iter (fun _ c -> c.c_value <- 0) counters

let reset () =
  reset_counters ();
  Hashtbl.iter (fun _ h -> Histogram.clear h.h_main) hists

let counter_snapshot () =
  Hashtbl.fold
    (fun name c acc -> if c.c_value <> 0 then (name, c.c_value) :: acc else acc)
    counters []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let pp_counts ppf counts =
  Fmt.list ~sep:(Fmt.any " ") (fun ppf (k, v) -> Fmt.pf ppf "%s=%d" k v) ppf counts

(* ------------------------------------------------------------------ *)
(* Measuring a run                                                     *)
(* ------------------------------------------------------------------ *)

type usage = {
  work : (string * int) list;
  minor_words : float;
  major_words : float;
  wall_ns : int;
  cpu_s : float;
}

let zero =
  { work = []; minor_words = 0.0; major_words = 0.0; wall_ns = 0; cpu_s = 0.0 }

(* Pointwise [op] of two counter lists sorted by name; zeros drop out. *)
let merge_counts op a b =
  let keep k v rest = if v = 0 then rest else (k, v) :: rest in
  let rec go a b =
    match a, b with
    | [], [] -> []
    | (k, v) :: t, [] -> keep k (op v 0) (go t [])
    | [], (k, v) :: t -> keep k (op 0 v) (go [] t)
    | (ka, va) :: ta, (kb, vb) :: tb ->
      let c = String.compare ka kb in
      if c < 0 then keep ka (op va 0) (go ta b)
      else if c > 0 then keep kb (op 0 vb) (go a tb)
      else keep ka (op va vb) (go ta tb)
  in
  go a b

let combine iop fop a b =
  { work = merge_counts iop a.work b.work;
    minor_words = fop a.minor_words b.minor_words;
    major_words = fop a.major_words b.major_words;
    wall_ns = iop a.wall_ns b.wall_ns;
    cpu_s = fop a.cpu_s b.cpu_s }

let add = combine ( + ) ( +. )
let sub = combine ( - ) ( -. )

(* Cumulative minor- and major-heap words of the calling domain (the major
   figure includes promotions, like [Gc.stat]'s).  Neither reading walks
   the heap, so a bracket perturbs nothing.  The minor figure is
   [Gc.minor_words]: on OCaml 5.1 [Gc.counters] counts the words allocated
   since the last minor collection at an eighth.  Both figures are the
   calling domain's only, so the pool's workers report theirs below. *)
let alloc_words () =
  let _, _, major = Gc.counters () in
  (Gc.minor_words (), major)

(* Words the pool's worker domains allocated in their shares of jobs.
   A worker adds its share before the pool join returns, so a [measure]
   around a parallel operator includes it. *)
let worker_minor = Atomic.make 0
let worker_major = Atomic.make 0

let worker_share f =
  let minor0, major0 = alloc_words () in
  f ();
  let minor1, major1 = alloc_words () in
  ignore (Atomic.fetch_and_add worker_minor (int_of_float (minor1 -. minor0)));
  ignore (Atomic.fetch_and_add worker_major (int_of_float (major1 -. major0)))

let all_words () =
  let minor, major = alloc_words () in
  ( minor +. float_of_int (Atomic.get worker_minor),
    major +. float_of_int (Atomic.get worker_major) )

let measure f =
  let work0 = counter_snapshot () in
  let minor0, major0 = all_words () in
  let cpu0 = Clock.cpu_seconds () in
  let t0 = Clock.now_ns () in
  let x = f () in
  let wall_ns = Clock.elapsed_ns t0 in
  let cpu_s = Clock.cpu_seconds () -. cpu0 in
  let minor1, major1 = all_words () in
  let work = merge_counts ( - ) (counter_snapshot ()) work0 in
  ( x,
    { work;
      minor_words = minor1 -. minor0;
      major_words = major1 -. major0;
      wall_ns;
      cpu_s } )
