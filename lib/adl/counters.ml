(* Named work counters used to compare tuple-oriented and set-oriented query
   processing independently of wall-clock noise.  The reference evaluator
   counts predicate evaluations and tuple visits; the physical engine counts
   hash builds/probes, oid lookups, partition spills, etc.

   This is now a facade over the observability metrics registry
   ([Njq_obs.Metrics]): the string-keyed [tick] interns a handle per call,
   while hot paths (the engine's inner loops) intern their handles once and
   increment through [Njq_obs.Metrics.incr] directly.  Both views share the
   same cells, so [snapshot] sees every increment regardless of which door
   it came through. *)

module M = Njq_obs.Metrics

let tick ?n name = M.incr ?n (M.counter name)

let get name = M.value (M.counter name)

let reset () = M.reset_counters ()

(* All counters ticked since the last [reset], sorted by name for stable
   output.  (Handles stay interned across resets; zeroed entries are
   filtered by the registry.) *)
let snapshot () = M.counter_snapshot ()

(* Run [f] with counting temporarily disabled (e.g. when an oracle result is
   computed inside a measured region). *)
let without_counting f = M.with_disabled f

(* Run [f ()] and return its result with the counters it ticked, as
   deltas sorted by name.  The registry is not zeroed, so counters kept
   across measured regions (the plan cache's hits and misses) survive. *)
let measure f =
  let before = snapshot () in
  let x = f () in
  let ticked (name, n) =
    let d = n - Option.value ~default:0 (List.assoc_opt name before) in
    if d = 0 then None else Some (name, d)
  in
  (x, List.filter_map ticked (snapshot ()))

let pp_snapshot ppf snap =
  Fmt.list ~sep:Fmt.sp (fun ppf (k, v) -> Fmt.pf ppf "%s=%d" k v) ppf snap
