(* Concurrent prepared-query serving with set-oriented parameter batching.

   A prepared handle keeps a template with parameters (explicit ?0 ?1 ...
   placeholders) plus the closure that turns template text into an ADL
   expression.  Both of its plans come from the one derivation every
   command uses ([Planner.derive]: rewrite, hoist closed subqueries,
   plan), so a closed subquery in a template is a constant evaluated once
   per derivation.  Plans are always resolved through the plan cache, so
   the handle survives catalog epoch bumps by re-deriving lazily, and two
   cache entries exist per handle:

   - the one-at-a-time plan: derived from the template itself, still
     containing [Expr.Param] leaves; each invocation binds its constants
     with [Plan.map_exprs] (a pure tree rebuild) and executes.

   - the batched plan: derived from
       map[w : (__cid = w.__cid, __rows = body[?i := w.__pi])](@params)
     over the handle's parameter table.  That correlated map is exactly
     the nested-loop shape the Section 4 strategy knows how to unnest:
     the rewriter turns the per-parameter-row subquery into joins and
     nestjoins against the parameter table, so the work shared by the K
     merged invocations (base-table scans, hash builds) is paid once.
     This is the paper's nested-loop → join move applied one level up —
     to the stream of invocations instead of the query body.

   The parameter table is registered once at [prepare] (one epoch bump,
   empty extent).  Per-batch parameter rows are spliced into the cached
   plan as a [Plan.Materialized] leaf via [Plan.map_scans]; the catalog
   itself is never touched while serving, so the epoch — and with it
   every cached plan of every handle — stays stable under load.

   The driver ([run]) keeps execution on the calling (main) domain so the
   executor's domain pool and the plan cache keep their main-domain
   contracts; client domains only build parameter vectors and block on
   the admission queue. *)

open Njq_adl
module M = Njq_obs.Metrics
module B = Njq_core.Batchrw

let c_request = M.counter "serve_request"
let c_batch = M.counter "serve_batch"
let c_batch_iterated = M.counter "serve_batch_iterated"
let h_queue = M.histogram "serve_queue_ns"
let h_service = M.histogram "serve_service_ns"
let h_batch = M.histogram "serve_batch_size"

type prepared = {
  cat : Catalog.t;
  text : string;  (* normalized template, placeholders as ?0 ?1 ... *)
  options : string;
  nparams : int;
  params_table : string;  (* registered at prepare; extent stays empty *)
  translate : string -> Expr.t;
  mutable priced : (Plan.t * Plan.t * float) option;
      (* the batched plan last priced against, the one-at-a-time plan and
         its cost: fetched again only when the batched plan is re-derived,
         so a batch adds no plan-cache probe for the choice *)
}

let next_table = ref 0

let prepare cat ?(options = "") ~translate text =
  let text = Plancache.normalize text in
  (* Translate eagerly: a bad template must fail at prepare, not at the
     first invocation — and the parameter count comes from the tree. *)
  let expr = translate text in
  let nparams = B.param_count expr in
  incr next_table;
  let params_table = Printf.sprintf "__serve_params_%d" !next_table in
  Catalog.add_table cat ~name:params_table ~row_type:(B.row_type ~nparams) [];
  { cat; text; options; nparams; params_table; translate; priced = None }

let text h = h.text
let nparams h = h.nparams

(* The one-at-a-time plan: the shared derivation ([Planner.derive]) of
   the template, still holding its [Expr.Param] leaves, through the cache
   (re-derives after any catalog epoch bump). *)
let plan_one h =
  Plancache.find_or_derive h.cat ~options:(h.options ^ ";serve") h.text
    ~derive:(fun () -> snd (Planner.derive h.cat (h.translate h.text)))

(* The batched plan over the handle's parameter table, derived the same
   way and cached under its own options key. *)
let plan_batched h =
  Plancache.find_or_derive h.cat
    ~options:(h.options ^ ";serve-batch;" ^ h.params_table)
    h.text
    ~derive:(fun () ->
      let body = h.translate h.text in
      snd
        (Planner.derive h.cat
           (B.batched ~params_table:h.params_table ~nparams:h.nparams body)))

let fingerprint h = Plan.fingerprint (fst (plan_one h))

let check_arity h params =
  if List.length params <> h.nparams then
    invalid_arg
      (Printf.sprintf "Serve: %d parameters given, template %s takes %d"
         (List.length params) h.text h.nparams)

let bind_plan params plan =
  let map =
    List.mapi (fun i v -> (Expr.param_name i, Expr.Const v)) params
  in
  Plan.map_exprs (Analysis.subst map) plan

let exec_one h params =
  check_arity h params;
  let plan, hit = plan_one h in
  (Exec.run h.cat (bind_plan params plan), hit)

(* The one-at-a-time plan and its estimated cost, priced once per
   derivation of the batched plan [batched] (physical identity: a cache hit
   returns the stored plan itself).  Parameters price like constants
   ([Cost] prices a [?i] point lookup by NDV), so one cost stands for
   every invocation. *)
let priced_one h batched =
  match h.priced with
  | Some (b, one, cost) when b == batched -> (one, cost)
  | _ ->
    let one, _ = plan_one h in
    let cost = Cost.cost ~stats:(Stats.cached h.cat) h.cat one in
    h.priced <- Some (batched, one, cost);
    (one, cost)

(* Run a batch, reporting whether it iterated.  A batch of K >= 2 runs
   the cheaper of two ways under the cost model: K bound one-at-a-time
   plans — the index nested-loop join of the parameter table with the
   template, cheap when each invocation is selective — or one set-oriented
   run of the batched plan, cheap when the invocations share work. *)
let exec_batch_how h param_vectors =
  List.iter (check_arity h) param_vectors;
  match param_vectors with
  | [] -> ([], false)
  | [ ps ] -> ([ fst (exec_one h ps) ], false)
  | _ ->
    let plan, _ = plan_batched h in
    let rows = List.mapi (fun cid ps -> B.param_row ~cid ps) param_vectors in
    (* Splice this batch's parameter rows in place of the (empty)
       parameter-table scan — no catalog mutation, no epoch bump. *)
    let spliced =
      Plan.map_scans
        (fun name ->
          if String.equal name h.params_table then
            Some (Plan.Materialized rows)
          else None)
        plan
    in
    let one, one_cost = priced_one h plan in
    let k = float_of_int (List.length param_vectors) in
    if k *. one_cost < Cost.cost ~stats:(Stats.cached h.cat) h.cat spliced
    then
      (List.map (fun ps -> Exec.run h.cat (bind_plan ps one)) param_vectors, true)
    else begin
      let by_cid = B.split (Exec.run h.cat spliced) in
      ( List.mapi
          (fun cid _ ->
            match List.assoc_opt cid by_cid with
            | Some v -> v
            | None ->
              (* Map totality over distinct cids guarantees one tuple per
                 parameter row; a hole means the rewrite dropped a row. *)
              failwith
                (Printf.sprintf "Serve.exec_batch: no result for cid %d" cid))
          param_vectors,
        false )
    end

let exec_batch h param_vectors = fst (exec_batch_how h param_vectors)

(* ------------------------------------------------------------------ *)
(* In-process concurrent driver                                        *)
(* ------------------------------------------------------------------ *)

type reply = {
  client : int;
  seq : int;
  value : Value.t;
  queue_ns : int;
  service_ns : int;
  batch : int;
}

type req = {
  q_handle : prepared;
  q_params : Value.t list;
  q_client : int;
  q_seq : int;
  q_enq_ns : int;
  mutable q_reply : reply option;
}

let run ?(batching = true) ?(window = 64) ?(burst = 1) ~clients ~requests
    ~params () =
  if clients <= 0 || requests <= 0 then []
  else begin
    let window = max 1 window and burst = max 1 burst in
    let mu = Mutex.create () in
    let have_req = Condition.create () in
    let have_reply = Condition.create () in
    let queue : req Queue.t = Queue.create () in
    let all : req list ref = ref [] in
    (* Client: issue [requests] invocations in bursts, waiting for every
       reply of a burst before sending the next — at most [burst]
       outstanding requests per client. *)
    let client ci =
      let seq = ref 0 in
      while !seq < requests do
        let n = min burst (requests - !seq) in
        let reqs =
          List.init n (fun j ->
              let s = !seq + j in
              let h, ps = params ~client:ci ~seq:s in
              { q_handle = h; q_params = ps; q_client = ci; q_seq = s;
                q_enq_ns = Njq_obs.Clock.now_ns (); q_reply = None })
        in
        Mutex.lock mu;
        List.iter (fun r -> Queue.add r queue) reqs;
        all := List.rev_append reqs !all;
        Condition.signal have_req;
        List.iter
          (fun r ->
            while r.q_reply = None do
              Condition.wait have_reply mu
            done)
          reqs;
        Mutex.unlock mu;
        seq := !seq + n
      done
    in
    let doms = List.init clients (fun ci -> Domain.spawn (fun () -> client ci)) in
    (* Scheduler: drain up to [window] requests of the oldest request's
       handle per round (FIFO otherwise), execute them as one batch, and
       publish the replies. *)
    let total = clients * requests in
    let served = ref 0 in
    while !served < total do
      Mutex.lock mu;
      while Queue.is_empty queue do
        Condition.wait have_req mu
      done;
      let first = Queue.peek queue in
      let limit = if batching then window else 1 in
      let taken = ref [] in
      let ntaken = ref 0 in
      let kept = Queue.create () in
      while not (Queue.is_empty queue) do
        let r = Queue.pop queue in
        if !ntaken < limit && r.q_handle == first.q_handle then begin
          taken := r :: !taken;
          incr ntaken
        end
        else Queue.add r kept
      done;
      Queue.transfer kept queue;
      Mutex.unlock mu;
      let batch = List.rev !taken in
      let k = !ntaken in
      let t0 = Njq_obs.Clock.now_ns () in
      let waits = List.map (fun r -> max 0 (t0 - r.q_enq_ns)) batch in
      let values, iterated =
        exec_batch_how first.q_handle (List.map (fun r -> r.q_params) batch)
      in
      let service_ns = Njq_obs.Clock.elapsed_ns t0 in
      M.incr ~n:k c_request;
      M.incr c_batch;
      if iterated then M.incr c_batch_iterated;
      M.observe h_batch k;
      M.observe ~n:k h_service service_ns;
      List.iter (fun w -> M.observe h_queue w) waits;
      Mutex.lock mu;
      List.iter2
        (fun r (w, v) ->
          r.q_reply <-
            Some
              { client = r.q_client; seq = r.q_seq; value = v; queue_ns = w;
                service_ns; batch = k })
        batch
        (List.combine waits values);
      served := !served + k;
      Condition.broadcast have_reply;
      Mutex.unlock mu
    done;
    List.iter Domain.join doms;
    !all
    |> List.filter_map (fun r -> r.q_reply)
    |> List.sort (fun a b ->
           match compare a.client b.client with
           | 0 -> compare a.seq b.seq
           | c -> c)
  end
