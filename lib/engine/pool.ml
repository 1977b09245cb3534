(* A reusable domain pool for the engine's parallel operators.

   OCaml 5 domains are heavyweight (each carries a minor heap and is
   scheduled by the OS), so the engine spawns its workers once and reuses
   them across every parallel operator of every query, instead of paying a
   [Domain.spawn] per join.  The pool holds [domains () - 1] persistent
   workers; the main domain is always the remaining participant, so a pool
   configured for [k] domains uses exactly [k] domains' worth of
   parallelism with [k - 1] spawned.

   Work model.  A job is a batch of [ntasks] independent tasks indexed
   [0 .. ntasks-1].  Participants (workers and the main domain alike) claim
   task indexes with an atomic fetch-and-add — the morsel-driven discipline
   of Leis et al.: cheap dynamic load balancing with no per-task channel or
   queue.  Each participant flushes its metrics shard ([Njq_obs.Metrics])
   when it runs out of tasks, and each worker reports the words it
   allocated, so by the time [run] returns counter totals are exact and a
   measured run counts every domain's allocation.  Determinism is the
   caller's business and is easy: tasks write results into their own
   index of a preallocated array, so the output order is the task order
   no matter which domain ran what.

   Sizing semantics.  [set_domains] (CLI [--domains], env [NJQ_DOMAINS])
   fixes the *configured* parallelism.  The next parallel [run] spawns
   the workers the configuration lacks; shrinking the configuration — as
   the scaling bench does between variants — joins every worker, so no
   idle domain is left for each later stop-the-world minor collection to
   wait on, and the next parallel [run] spawns the smaller set.  A job
   admits at most [domains () - 1] workers (the [max_workers] cap).

   Safety properties:
   - [run] called with [domains () <= 1], with [ntasks <= 1], from a
     worker (nested parallelism), or off the main domain degrades to a
     plain sequential loop — no locks, no shards, bit-identical behavior
     to a sequential engine.
   - an exception in any task is captured, the batch is drained (other
     participants stop claiming real work), and the exception is re-raised
     on the main domain after every participant has parked.
   - metrics sharding is bracketed by [enter_parallel]/[exit_parallel]
     so sequential execution keeps its unsynchronized single-add ticks. *)

let env_default () =
  match Sys.getenv_opt "NJQ_DOMAINS" with
  | None | Some "" -> 1
  | Some s ->
    (match int_of_string_opt (String.trim s) with
     | Some n when n >= 1 -> n
     | _ -> 1)

let default_domains = env_default

let configured = ref (env_default ())

let domains () = !configured

(* ------------------------------------------------------------------ *)
(* Pool state                                                          *)
(* ------------------------------------------------------------------ *)

type job = {
  ntasks : int;
  next : int Atomic.t; (* next unclaimed task index *)
  task : int -> unit;
  max_workers : int; (* workers admitted to this job (configured - 1) *)
  mutable admitted : int; (* workers that joined this job *)
  mutable active : int; (* admitted workers still running *)
  mutable failed : exn option; (* first exception, re-raised by [run] *)
}

let mu = Mutex.create ()
let work_cv = Condition.create ()
let done_cv = Condition.create ()

(* Generation counter: bumped once per job; sleeping workers wake when it
   moves.  [current] is the live job, [None] between jobs. *)
let generation = ref 0
let current : job option ref = ref None
let shutting_down = ref false

(* Spawned workers, kept for [shutdown]. *)
let workers : unit Domain.t list ref = ref []
let spawned = ref 0

(* True while the calling domain is inside [run]'s parallel section; makes
   nested [run]s degrade to sequential loops instead of deadlocking. *)
let in_parallel_key : bool ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref false)

let drain job =
  let rec claim () =
    let i = Atomic.fetch_and_add job.next 1 in
    if i < job.ntasks then begin
      (match job.task i with
       | () -> ()
       | exception exn ->
         Mutex.lock mu;
         if job.failed = None then job.failed <- Some exn;
         (* Park the batch: leap [next] past the end so no participant
            claims further tasks. *)
         Atomic.set job.next job.ntasks;
         Mutex.unlock mu);
      claim ()
    end
  in
  claim ();
  (* Totals must be in the main cells — and worker task spans in the
     tracer's foreign list — before the pool join returns. *)
  Njq_obs.Metrics.flush_local ();
  Njq_obs.Span.flush_domain ()

let worker_loop () =
  let my_gen = ref 0 in
  let rec loop () =
    Mutex.lock mu;
    while !generation = !my_gen && not !shutting_down do
      Condition.wait work_cv mu
    done;
    if !shutting_down then Mutex.unlock mu
    else begin
      my_gen := !generation;
      match !current with
      | Some job when job.admitted < job.max_workers ->
        job.admitted <- job.admitted + 1;
        job.active <- job.active + 1;
        Mutex.unlock mu;
        Njq_obs.Metrics.worker_share (fun () -> drain job);
        Mutex.lock mu;
        job.active <- job.active - 1;
        if job.active = 0 then Condition.broadcast done_cv;
        Mutex.unlock mu;
        loop ()
      | _ ->
        (* Job already fully staffed (or gone): sleep until the next one. *)
        Mutex.unlock mu;
        loop ()
    end
  in
  loop ()

let ensure_workers k =
  while !spawned < k do
    workers := Domain.spawn worker_loop :: !workers;
    incr spawned
  done

let shutdown () =
  Mutex.lock mu;
  shutting_down := true;
  Condition.broadcast work_cv;
  Mutex.unlock mu;
  List.iter Domain.join !workers;
  workers := [];
  spawned := 0;
  shutting_down := false

let () = at_exit (fun () -> if !spawned > 0 then shutdown ())

let set_domains n =
  let n = max 1 n in
  configured := n;
  if n - 1 < !spawned then shutdown ()

let live_workers () = !spawned

(* ------------------------------------------------------------------ *)
(* Running a batch                                                     *)
(* ------------------------------------------------------------------ *)

let run_sequential n f = Array.init n f

let run_parallel n f =
  let k = domains () in
  ensure_workers (k - 1);
  let results = Array.make n None in
  let job =
    {
      ntasks = n;
      next = Atomic.make 0;
      task = (fun i -> results.(i) <- Some (f i));
      max_workers = min (k - 1) (n - 1);
      admitted = 0;
      active = 0;
      failed = None;
    }
  in
  let in_par = Domain.DLS.get in_parallel_key in
  in_par := true;
  Njq_obs.Metrics.enter_parallel ();
  Fun.protect
    ~finally:(fun () ->
      Njq_obs.Metrics.exit_parallel ();
      in_par := false)
    (fun () ->
      Mutex.lock mu;
      current := Some job;
      incr generation;
      Condition.broadcast work_cv;
      Mutex.unlock mu;
      (* The main domain participates in its own job. *)
      drain job;
      Mutex.lock mu;
      while job.active > 0 do
        Condition.wait done_cv mu
      done;
      current := None;
      Mutex.unlock mu;
      match job.failed with
      | Some exn -> raise exn
      | None ->
        Array.map
          (function
            | Some v -> v
            | None -> assert false (* every index < ntasks was claimed *))
          results)

let run n f =
  if n <= 0 then [||]
  else if
    n = 1 || domains () <= 1
    || (not (Domain.is_main_domain ()))
    || !(Domain.DLS.get in_parallel_key)
  then run_sequential n f
  else run_parallel n f
