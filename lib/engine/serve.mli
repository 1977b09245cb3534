(** Concurrent prepared-query serving with set-oriented parameter
    batching.

    A {!prepared} handle is a query template with parameters (explicit
    [?0 ?1 ...] placeholders) bound to a catalog.  Both of its plans are
    derived by {!Planner.derive}, the derivation every command uses, so a
    closed subquery of the template is a constant evaluated once per
    derivation.  Handles execute two ways, with bit-identical
    per-invocation results:

    - {!exec_one}: substitute the parameter vector into the cached
      template's plan ({!Plan.map_exprs}) and run it — K invocations
      cost K full executions.
    - {!exec_batch}: merge the K outstanding parameter vectors into a
      parameter table and run the template {e once}, set-oriented — or,
      when the cost model prices K index-served invocations lower, run
      them one at a time.  The
      batched form [map\[w : (__cid, __rows = body\[?i := w.__pi\])\]] is
      a correlated subquery the Section 4 strategy unnests into joins —
      the paper's nested-loop → join move applied to the invocation
      batch itself, so shared work (scans, hash builds) is paid once
      instead of K times.  Results are split back per client by [__cid].

    The parameter table is registered in the catalog once at {!prepare}
    (one epoch bump); per-batch rows are spliced into the cached batched
    plan as a {!Plan.Materialized} leaf via {!Plan.map_scans}, so serving
    batches never perturbs the catalog epoch and both plans stay
    plan-cache hits.  Any real catalog change still bumps the epoch and
    re-derives on the next invocation.

    {!run} is the in-process multi-client driver: client domains submit
    invocations into an admission queue; the scheduler (main domain, so
    the executor keeps its domain pool) drains up to a window of
    same-handle requests per round and executes them as one batch.
    Queue waits, service times and batch sizes land in the
    ["serve_queue_ns"] / ["serve_service_ns"] / ["serve_batch_size"]
    histograms and the ["serve_request"] / ["serve_batch"] /
    ["serve_batch_iterated"] counters. *)

open Njq_adl

type prepared

(** [prepare cat ~translate text] readies template [text] (OOSQL or any
    frontend the [translate] closure understands; parameters appear as
    [?0 ?1 ...]) for repeated execution against [cat].  [translate] maps
    template text to its ADL expression — passed as a closure so the
    engine stays frontend-free — and is called once eagerly (failing
    fast on bad text) and again on plan-cache misses.  [options] joins
    the plan-cache key (mode flags etc.).  Registers the handle's
    parameter table in [cat]. *)
val prepare :
  Catalog.t ->
  ?options:string ->
  translate:(string -> Expr.t) ->
  string ->
  prepared

(** Normalized template text. *)
val text : prepared -> string

(** Number of parameters ([1 +] the highest placeholder index). *)
val nparams : prepared -> int

(** Fingerprint of the one-at-a-time plan, [?i] leaves and all — the qlog
    join key for every invocation of this handle, batched or not, and the
    fingerprint of [Planner.derive] on the template's translation. *)
val fingerprint : prepared -> string

(** Execute one invocation: bind the parameter vector into the cached
    template's plan and run it.  Also reports whether the plan came
    from the cache.  Raises [Invalid_argument] on a parameter-count
    mismatch. *)
val exec_one : prepared -> Value.t list -> Value.t * bool

(** Execute K invocations as one batch; [exec_batch h pss] returns one
    result per parameter vector, in order, each bit-identical to
    [fst (exec_one h ps)].  A singleton batch degrades to {!exec_one}.
    For K >= 2 the batch runs the cheaper way under {!Cost}: when
    [K × cost(one-at-a-time plan)] is below the cost of the batched plan
    with the K parameter rows spliced in, it binds and runs the
    one-at-a-time plan per invocation — the index nested-loop join of
    the parameter table with the template, the right choice when each
    invocation is a selective index lookup — and otherwise runs the
    set-oriented batch, which pays shared scans and builds once.  The
    one-at-a-time plan's cost is kept with the batched plan it was priced
    against, so a batch that stays set-oriented does no counted work for
    the choice.  {!run} counts the iterated batches in the
    ["serve_batch_iterated"] counter. *)
val exec_batch : prepared -> Value.t list list -> Value.t list

(** {1 In-process concurrent driver} *)

type reply = {
  client : int;
  seq : int;  (** request index within the client, from 0 *)
  value : Value.t;
  queue_ns : int;  (** admission-queue wait before its batch started *)
  service_ns : int;  (** wall time of the executing batch *)
  batch : int;  (** invocations merged into that batch *)
}

(** [run ~clients ~requests ~params ()] spawns [clients] client domains,
    each synchronously issuing [requests] invocations in bursts of
    [burst] (default 1: at most one outstanding request per client).
    [params ~client ~seq] picks the handle and parameter vector of each
    invocation; it runs on client domains and must be thread-safe and
    non-raising.  The scheduler runs on the calling (main) domain,
    draining up to [window] (default 64) same-handle requests per batch;
    [batching:false] forces one-at-a-time service (the baseline the
    benchmarks contrast).  Returns every reply sorted by [(client, seq)].
    Must be called from the main domain. *)
val run :
  ?batching:bool ->
  ?window:int ->
  ?burst:int ->
  clients:int ->
  requests:int ->
  params:(client:int -> seq:int -> prepared * Value.t list) ->
  unit ->
  reply list
