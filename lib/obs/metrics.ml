(* The metrics registry: named counters and histograms with
   *pre-interned handles*.

   The legacy [Njq_adl.Counters] interface looks a counter up in a string
   hashtable on every tick — a hash of the name plus a table probe on the
   hottest paths of the engine (per probe, per pair, per spill).  Here a
   counter is interned once into a handle holding the mutable cell
   directly; [incr] is a bounds-free add guarded by one flag read.  The
   string-keyed interface survives on top of interning, so existing call
   sites and the [Counters] facade keep working unchanged.

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

type counter = { c_id : int; c_name : string; mutable c_value : int }

(* A named latency/allocation distribution.  The main histogram belongs
   to the main domain like counter cells do; sharded observations land in
   per-domain scratch histograms and merge on flush (exact: histogram
   merge is pointwise bucket addition). *)
type hist = { h_id : int; h_name : string; h_main : Histogram.t }

(* One flag for the whole registry: [Counters.without_counting] brackets
   oracle computations inside measured regions. *)
let enabled = ref true

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

(* Parallel-section counter deltas attributed per domain id, accumulated
   at shard-flush time (under [reg_mu]).  Sequential main-domain ticks
   are deliberately absent: this table answers "which domain did the
   parallel work", not "what was the total" — totals live in the main
   cells. *)
let domain_work : (int, (string, int) Hashtbl.t) Hashtbl.t = Hashtbl.create 8

let counter name =
  with_reg (fun () ->
      match Hashtbl.find_opt counters name with
      | Some c -> c
      | None ->
        let c = { c_id = !next_id; c_name = name; c_value = 0 } in
        incr next_id;
        Hashtbl.add counters name c;
        c)

let histogram name =
  with_reg (fun () ->
      match Hashtbl.find_opt hists name with
      | Some h -> h
      | None ->
        let h = { h_id = !next_id; h_name = name; h_main = Histogram.create () }
        in
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
    let did = (Domain.self () :> int) in
    with_reg (fun () ->
        let attributed =
          match Hashtbl.find_opt domain_work did with
          | Some t -> t
          | None ->
            let t = Hashtbl.create 16 in
            Hashtbl.add domain_work did t;
            t
        in
        Hashtbl.iter
          (fun _ cell ->
            match cell with
            | C (c, r) ->
              c.c_value <- c.c_value + !r;
              let prev =
                Option.value ~default:0
                  (Hashtbl.find_opt attributed c.c_name)
              in
              Hashtbl.replace attributed c.c_name (prev + !r)
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
  if !enabled then
    if not !sharded then c.c_value <- c.c_value + n else shard_counter_add c n

let value c = c.c_value

(* Record [v] into a histogram.  Sequentially this writes the main
   histogram (main-domain-only, like counter cells); inside a parallel
   section it lands in the domain's scratch histogram and merges exactly
   on flush. *)
let observe ?(n = 1) h v =
  if !enabled then
    if not !sharded then Histogram.record ~n h.h_main v
    else shard_hist_add h v n

(* The merged main histogram.  Only read this outside parallel sections
   (shards may still hold samples while one is open). *)
let hist_value h = h.h_main

(* Zero every handle.  Handles stay interned (their identity is the point),
   so snapshots filter zero-valued entries to keep the "only what was
   ticked" reading of the legacy interface. *)
let reset_counters () = Hashtbl.iter (fun _ c -> c.c_value <- 0) counters

let reset_histograms () = Hashtbl.iter (fun _ h -> Histogram.clear h.h_main) hists
let reset_domain_work () = with_reg (fun () -> Hashtbl.reset domain_work)

let reset () =
  reset_counters ();
  reset_histograms ();
  reset_domain_work ()

let counter_snapshot () =
  Hashtbl.fold
    (fun name c acc -> if c.c_value <> 0 then (name, c.c_value) :: acc else acc)
    counters []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* Parallel-section counter deltas per domain id:
   [(domain_id, [(counter, delta)])], both levels sorted.  Summing a
   counter across domains gives exactly its sharded (parallel)
   contribution to the main cell. *)
let counter_snapshot_by_domain () =
  with_reg (fun () ->
      Hashtbl.fold
        (fun did tbl acc ->
          let rows =
            Hashtbl.fold
              (fun name v acc -> if v <> 0 then (name, v) :: acc else acc)
              tbl []
            |> List.sort (fun (a, _) (b, _) -> String.compare a b)
          in
          if rows = [] then acc else (did, rows) :: acc)
        domain_work []
      |> List.sort (fun (a, _) (b, _) -> compare a b))

(* Run [f] with the registry ignoring increments and records. *)
let with_disabled f =
  let saved = !enabled in
  enabled := false;
  Fun.protect ~finally:(fun () -> enabled := saved) f
