(* Plan execution.

   The engine's contribution is the set-oriented organization of the
   iteration: hash tables for equi-joins, semijoins, antijoins and
   nestjoins, a sort-merge alternative, member joins that probe an
   extent's oid index (pointer-based) or a hash table (value-based), and
   the PNHL algorithm for set-valued attribute materialization.

   Parameter expressions (join keys, filter predicates, residuals, map and
   nestjoin bodies) are compiled once per operator into closures
   ([Njq_adl.Compile]) before iterating, so no per-tuple AST dispatch or
   environment allocation remains in the loops.

   Every node's rows are duplicate-free, but only operators that can
   create duplicates from duplicate-free inputs pay for a hash-set dedup
   (over the memoized [Value.hash], not a full sort): maps, projections,
   flatten and union; unnests whose input has no key apart from the
   unnested attribute ([key_attr]); PNHL when what it writes may
   overwrite an attribute no such key covers; member joins
   whose element key is not the element itself; division's candidate
   quotients.  Joins emit each pair once, so they never dedup, and the
   root skips its dedup because [run] canonicalizes its rows with
   [Value.set] (DESIGN.md section 8).

   One executor, batched push.  Every operator that can stream
   ([Plan.streams_output]) pushes [Batch.t] column batches into its
   consumer, so a Scan -> Filter -> Map -> probe chain runs as one fused
   loop with no intermediate lists: scans cut zero-copy windows out of the
   catalog's row array and filters narrow selection vectors with their
   compiled predicates.  Pipeline breakers
   materialize only where semantics demand it: hash build sides (straight
   into the table, no build list), sort-merge inputs, NestOp grouping,
   division, PNHL segments, join partitions and morsel operators' batch
   buffers.  Each [Plan.t] operator has one implementation here, and its
   policy values (a join's partitions and budget, a filter's or map's
   morsel flag, PNHL's budget) only change how that one path runs.

   Every probing join — hash and nested-loop joins and nestjoins, index
   joins, member joins, and each partition pair of a partitioned join —
   is a right-side [probe] (which rows match x, does any) driven by one
   match-and-emit loop over left batches, [emit_join]: the semijoin and
   antijoin narrow the batch's selection vector, the join concatenates,
   the outer join pads and the nestjoin attaches the group.

   Work counters tick exactly once per logical event, so counter totals
   depend on neither the batch size nor the pool size (see DESIGN.md
   sections 7 and 8).

   Larger-than-memory execution: spilling is a policy the plan carries
   (a partitioned join's and PNHL's [mem_budget]).  When a partitioned
   join's build side or a PNHL build table is past its budget, its
   partitions are spill files ([Rowcodec]) written on the calling domain
   (re-split there on key skew) and read back by pool tasks, so at K
   domains up to K partitions are resident.  Spilling never changes
   results: partition assignment reproduces the in-memory permutations
   exactly.  Sort-merge has no build table to bound; it sorts its
   resident inputs in memory.

   Work counters (see [Njq_obs.Metrics]): "scan_row", "filter_eval",
   "hash_build", "hash_probe", "nl_pair", "sm_cmp", "partition" (per
   partition of a partitioned join), "partition_row" (per row per
   partitioning pass), "pnhl_partition", "pnhl_build", "pnhl_probe", plus
   "oid_lookup" from [Catalog.deref].  Spill activity ticks "spill_part"
   (per spilled partition or segment; a join partition without rows
   creates no file), "spill_row" and "spill_bytes" (per encoded row). *)

open Njq_adl

exception Exec_error of string

let exec_error fmt = Fmt.kstr (fun s -> raise (Exec_error s)) fmt

module VTbl = Hashtbl.Make (struct
  type t = Value.t

  let equal = Value.equal

  (* Full-depth structural hash, memoized on set nodes; consistent with
     [Value.equal] because values are canonical. *)
  let hash = Value.hash
end)

(* Ordered composite key for multi-attribute equi joins: one slot per key
   pair, compared and hashed positionally.  Unlike the former [Value.VSet]
   encoding, key identity cannot depend on canonical set ordering or on the
   order in which attribute values happen to be evaluated. *)
module Key = struct
  type t = Value.t array

  let equal a b =
    Array.length a = Array.length b
    &&
    let rec go i = i < 0 || (Value.equal a.(i) b.(i) && go (i - 1)) in
    go (Array.length a - 1)

  let hash k =
    Array.fold_left (fun acc v -> (acc * 31) + Value.hash v) (Array.length k) k
end

module KTbl = Hashtbl.Make (Key)

(* Compiled extractor for one side of the equi-join keys, and the join
   residual, as spawners: compiled closures carry a per-instance slot
   buffer, so a task running on a pool domain must mint its own instance
   ([Compile]'s spawners share the compiled code, which is immutable). *)
let key_fns_spawner cat var side keys =
  let spawners =
    Array.of_list
      (List.map
         (fun (kx, ky) ->
           Compile.expr1_spawner cat ~var
             (match side with `Left -> kx | `Right -> ky))
         keys)
  in
  fun () ->
    let fns = Array.map (fun s -> s ()) spawners in
    fun row -> Array.map (fun f -> f row) fns

let residual_spawner cat xvar yvar residual =
  if Expr.is_true residual then fun () _ _ -> true
  else Compile.pred2_spawner cat ~vars:(xvar, yvar) residual

let key_fns cat var side keys = key_fns_spawner cat var side keys ()
let residual_fn cat xvar yvar residual = residual_spawner cat xvar yvar residual ()

(* Resolve the catalog index an access-path node refers to.  The planner
   only emits nodes for indexes it found in the catalog, so a miss means
   the plan outlived a catalog it was not derived from. *)
let find_index cat name =
  match Catalog.find_index cat name with
  | Some idx -> idx
  | None -> exec_error "unknown index %s" name

(* Fetch the candidate rows of an [IndexScan]'s lookup.  The lookup
   expressions are closed (the planner only extracts conjuncts with no
   free variables), so they evaluate once per operator, not per row.
   Probe/row counters tick inside the catalog. *)
let index_fetch cat idx (lookup : Plan.index_lookup) =
  match lookup with
  | Plan.LPoint keys ->
    Catalog.index_lookup_eq cat idx
      (Array.of_list (List.map (fun e -> Eval.eval cat [] e) keys))
  | Plan.LRange { lo; hi } ->
    let bound = Option.map (fun (e, incl) -> (Eval.eval cat [] e, incl)) in
    Catalog.index_lookup_range cat idx ~lo:(bound lo) ~hi:(bound hi)

(* Per-row attribute rename for access paths that absorbed a [RenameOp]
   over the scan they replaced; identity when the pair list is empty. *)
let renamer pairs = if pairs = [] then Fun.id else Value.rename pairs

(* An attribute no two output rows of [p] share a value of, when the plan
   proves one.  Keys start at the scans of extents keyed on "oid"
   ([Catalog.oid_key]) and survive the operators that keep a subset of
   their input rows (filters, index scans, semi- and antijoins) or extend
   each input row exactly once (nestjoins, member nestjoins, PNHL) —
   unless the extension overwrites the key — and renames, under the new
   name.  [UnnestOp] uses it to skip its dedup. *)
let rec key_attr cat (p : Plan.t) =
  let renamed pairs k = Option.value ~default:k (List.assoc_opt k pairs) in
  match p with
  | Plan.Scan table -> if Catalog.oid_key cat table then Some "oid" else None
  | Plan.IndexScan { table; rename; _ } ->
    Option.map (renamed rename) (key_attr cat (Plan.Scan table))
  | Plan.RenameOp (pairs, input) -> Option.map (renamed pairs) (key_attr cat input)
  | Plan.Filter { input; _ } -> key_attr cat input
  | Plan.JoinOp { kind = Expr.Semi | Expr.Anti; left; _ }
  | Plan.IndexJoin { kind = Expr.Semi | Expr.Anti; left; _ }
  | Plan.MemberJoin { kind = Plan.MSemi | Plan.MAnti | Plan.MNest _; left; _ }
  | Plan.NestjoinOp { left; _ } ->
    key_attr cat left
  | Plan.Pnhl { into; left; _ } ->
    Option.bind (key_attr cat left) (fun k ->
        if String.equal into k then None else Some k)
  | _ -> None

(* Does [input] have a key other than attribute [a]?  Then no two of its
   rows differ only in [a], so an operator that replaces or removes [a]
   (unnest, and PNHL overwriting [a]) cannot merge rows. *)
let keyed_apart_from cat a input =
  match key_attr cat input with
  | Some k -> not (String.equal k a)
  | None -> false

(* Work counters, interned once into registry handles so the inner loops
   pay a flag read and a field add per tick instead of a string-hashtable
   probe (see [Njq_obs.Metrics]). *)
module M = Njq_obs.Metrics
module Clock = Njq_obs.Clock
module Span = Njq_obs.Span

let c_scan_row = M.counter "scan_row"
let c_filter_eval = M.counter "filter_eval"
let c_hash_build = M.counter "hash_build"
let c_hash_probe = M.counter "hash_probe"
let c_nl_pair = M.counter "nl_pair"
let c_sm_cmp = M.counter "sm_cmp"
let c_partition = M.counter "partition"
let c_partition_row = M.counter "partition_row"
let c_pnhl_partition = M.counter "pnhl_partition"
let c_pnhl_build = M.counter "pnhl_build"
let c_pnhl_probe = M.counter "pnhl_probe"
let c_spill_part = M.counter "spill_part"
let c_spill_row = M.counter "spill_row"
let c_spill_bytes = M.counter "spill_bytes"

(* Wall-time distribution of individual pool tasks (join partitions,
   PNHL segments, morsel batches), recorded per domain and merged at pool
   join. *)
let h_par_task = M.histogram "par_task_ns"

(* Wrap one parallel task body: its wall time lands in [h_par_task], and
   under tracing a completed span (tagged with the recording domain — the
   Chrome exporter's [tid] lane) is emitted from whichever domain ran the
   task, so partition work is attributable in [--trace-out] output. *)
let par_task name task i =
  let t0 = Clock.now_ns () in
  let finish () =
    M.observe h_par_task (Clock.elapsed_ns t0);
    if Span.tracing_enabled () then
      Span.emit ~start_ns:t0 ~attrs:[ ("task", Span.AInt i) ] name
  in
  match task i with
  | r ->
    finish ();
    r
  | exception exn ->
    finish ();
    raise exn

(* Partition of a row among [n] by its key's hash, salted by the
   partitioning depth (0 for the first pass, so a skewed partition splits
   differently when it is partitioned again), made non-negative
   ([Value.hash] can go negative through multiplicative overflow).  One
   "partition_row" tick per routed row. *)
let hash_route ~depth n key row =
  M.incr c_partition_row;
  ((Value.hash (key row) lxor (depth * 0x9e3779b1)) land max_int) mod n

(* Partition the rows [feed] produces into [n] lists by [route], in
   arrival order. *)
let route_rows n route feed =
  let parts = Array.make n [] in
  feed (fun row ->
      let b = route row in
      parts.(b) <- row :: parts.(b));
  Array.map List.rev parts

(* Initial hash-table size for a build side, from the planner's cardinality
   estimate instead of an extra O(n) [List.length] pass over the already
   materialized build list.  Clamped: at least 16 buckets (the former fixed
   floor), at most 1M so a wild estimate (or a [max_int] memory budget used
   as a cap) cannot pre-allocate an absurd bucket array. *)
let tbl_size ?cap cat p =
  let est = int_of_float (Float.min 1_000_000.0 (Cost.rows_out cat p)) in
  let est = match cap with Some c -> min est c | None -> est in
  max 16 est

(* ---------------------------------------------------------------------- *)
(* Spill helpers                                                           *)
(* ---------------------------------------------------------------------- *)

(* Release spill files; each is removed at most once, so a file a task
   already read back and removed is not touched again. *)
let remove_partitions sps = Array.iter (Option.iter Rowcodec.spill_remove) sps

(* The spilling counterpart of [route_rows], and the one spill writer:
   each row goes to the file of partition [route row], created with its
   first row, so an empty partition costs no file (it still counts as a
   spilled partition).  A raise while [feed] runs removes the files
   written so far. *)
let spill_partitions n route feed =
  let sps = Array.make n None in
  let write row =
    let b = route row in
    let sp =
      match sps.(b) with
      | Some sp -> sp
      | None ->
        let sp = Rowcodec.spill_create ~prefix:"njq-part" () in
        sps.(b) <- Some sp;
        sp
    in
    M.incr c_spill_row;
    M.incr ~n:(Rowcodec.spill_add sp row) c_spill_bytes
  in
  M.incr ~n c_spill_part;
  match feed write with
  | () -> sps
  | exception e ->
    remove_partitions sps;
    raise e

(* Read back a spilled partition and release its disk space. *)
let read_partition sps b =
  match sps.(b) with
  | None -> []
  | Some sp ->
    let rows = Rowcodec.spill_read sp in
    Rowcodec.spill_remove sp;
    rows

(* --------------------------------------------------------------------- *)
(* Non-perturbing per-operator profiling                                  *)
(*                                                                        *)
(* When a collector is installed (see [collect]), the [rows] dispatcher   *)
(* measures every plan-node execution ([Njq_obs.Metrics.measure]) and     *)
(* records one [node_sample] per node — the plan tree itself executes     *)
(* unchanged, so row counts, counter totals and algorithmic behaviour are *)
(* exactly those of an unprofiled run.  Each open node has a frame that   *)
(* its children charge their inclusive usage to as they finish, so        *)
(* exclusive (self) time, work and allocation fall out by subtraction.    *)
(* A fused chain runs as one loop: the node that owns the loop (the one   *)
(* [rows] was called on) gets the measured sample, and every operator     *)
(* fused into it still records a sample with its exact output row count   *)
(* and zero usage — the owner's exclusive figures cover the whole fused   *)
(* loop (documented in [Profile]).  Samples are keyed by the physical     *)
(* identity of the [Plan.t] node; [Profile] joins them back to the tree.  *)
(* --------------------------------------------------------------------- *)

type node_sample = {
  sample_plan : Plan.t;  (* physical node identity, compare with [==] *)
  out_rows : int;
  usage : M.usage;  (* exclusive of children *)
}

type collector = {
  mutable samples : node_sample list;  (* reverse completion order *)
  mutable stack : M.usage ref list;  (* open frames: their children's usage *)
}

let collector : collector option ref = ref None

(* ---------------------------------------------------------------------- *)
(* Probes and the match-and-emit loop                                      *)
(* ---------------------------------------------------------------------- *)

(* A first-occurrence filter over the memoized [Value.hash]: [fresh v]
   holds the first time it sees [v]. *)
let first_seen () =
  let seen = VTbl.create 64 in
  fun v -> (not (VTbl.mem seen v)) && (VTbl.add seen v (); true)

(* Order-preserving hash-set dedup (the caller canonicalizes at the top
   via [Value.set]). *)
let dedup vs = match vs with [] | [ _ ] -> vs | _ -> List.filter (first_seen ()) vs

(* A row emitter into owned batches for [bsink], and its flush; with
   [dedup], a row already emitted is dropped. *)
let row_builder ~dedup bsink =
  let bld = Batch.builder bsink in
  let add =
    if dedup then begin
      let fresh = first_seen () in
      fun v -> if fresh v then Batch.add bld v
    end
    else Batch.add bld
  in
  (add, fun () -> Batch.flush bld)

(* Re-pack a row list into owned batches. *)
let repack bsink rows_ =
  let add, flush = row_builder ~dedup:false bsink in
  List.iter add rows_;
  flush ()

(* Push [rs] as zero-copy windows of [!Batch.size] rows. *)
let windows rs bsink =
  let n = Array.length rs and bs = !Batch.size in
  let rec go off =
    if off < n then begin
      bsink (Batch.view rs ~off ~len:(min bs (n - off)));
      go (off + bs)
    end
  in
  go 0

(* The right side of a probing join, compiled once per operator:
   [matches x] is the list of right rows joining left row [x], and
   [exists x] whether there is one, stopping at the first. *)
type probe = { matches : Value.t -> Value.t list; exists : Value.t -> bool }

(* The probe whose candidates for [x] are [cands x], kept when [test x]
   holds of them. *)
let filtered test cands =
  {
    matches = (fun x -> List.filter (test x) (cands x));
    exists = (fun x -> List.exists (test x) (cands x));
  }

(* Hash [feed]'s rows on [ykey], one "hash_build" per row, into a table
   of [hint] initial buckets (a capacity estimate that cannot affect
   results).  Returns its two lookups, one "hash_probe" each: the rows of
   a key, in reverse insertion order, and whether there is one. *)
let build_table (type k) (module T : Hashtbl.S with type key = k) hint
    (ykey : Value.t -> k) feed =
  let tbl = T.create hint in
  feed (fun y ->
      M.incr c_hash_build;
      T.add tbl (ykey y) y);
  ( (fun k ->
      M.incr c_hash_probe;
      T.find_all tbl k),
    fun k ->
      M.incr c_hash_probe;
      T.mem tbl k )

(* The equi-key hash probe of a join or nestjoin, compiled once per
   operator from spawners: each [prober ~hint feed] mints its own closures
   and builds its own table from [feed], so each partition pair of a
   partitioned join can build one as a pool task.  One key hashes the key
   value itself ([VTbl]); several hash the ordered key array ([KTbl]).
   The match lists do not depend on the table: both list a key's rows in
   reverse insertion order. *)
let hash_prober cat ~xvar ~yvar ~keys residual =
  let residual_s = residual_spawner cat xvar yvar residual in
  let prober (type k) (module T : Hashtbl.S with type key = k) xkey_s ykey_s
      ~hint feed =
    let xkey : Value.t -> k = xkey_s () and residual = residual_s () in
    let find_all, _ = build_table (module T) hint (ykey_s ()) feed in
    filtered residual (fun x -> find_all (xkey x))
  in
  match keys with
  | [] -> exec_error "hash join without equi keys"
  | [ (kx, ky) ] ->
    prober (module VTbl)
      (Compile.expr1_spawner cat ~var:xvar kx)
      (Compile.expr1_spawner cat ~var:yvar ky)
  | _ ->
    prober (module KTbl)
      (key_fns_spawner cat xvar `Left keys)
      (key_fns_spawner cat yvar `Right keys)

(* Nested loops over the materialized right rows [ys]: one "nl_pair" per
   pair tested, and [exists] stops at the first match. *)
let nl_probe cat ~xvar ~yvar ~keys residual ys =
  let xkey = key_fns cat xvar `Left keys and ykey = key_fns cat yvar `Right keys in
  let residual = residual_fn cat xvar yvar residual in
  filtered
    (fun x ->
      let kx = xkey x in
      fun y ->
        M.incr c_nl_pair;
        Key.equal kx (ykey y) && residual x y)
    (fun _ -> ys)

(* Index nested loops: each left row's evaluated keys look up the inner
   table's index; the fetched rows are renamed, then residual-tested. *)
let index_probe cat ~xvar ~yvar ~index ~keys ~rename residual =
  let idx = find_index cat index and ren = renamer rename in
  let xkey = key_fns cat xvar `Left (List.map (fun e -> (e, e)) keys) in
  let residual = residual_fn cat xvar yvar residual in
  filtered residual (fun x -> List.map ren (Catalog.index_lookup_eq cat idx (xkey x)))

(* What a probing join emits for a left row [x] and its matches. *)
type emit =
  | Concat  (* ⋈: [x ++ y] per match *)
  | Semi  (* ⋉: [x] when it has a match *)
  | Anti  (* ▷: [x] when it has none *)
  | Outer of Value.t  (* ⋈ padding a dangling [x] with this null row *)
  | Group of (Value.t -> Value.t -> Value.t) * string
      (* ⊣: [x] extended with the attribute, the set of [body x y] *)

let join_emit : Expr.join_kind -> emit = function
  | Expr.Inner -> Concat
  | Expr.Semi -> Semi
  | Expr.Anti -> Anti
  | Expr.LeftOuter pad -> Outer (Value.tuple (List.map (fun a -> (a, Value.VNull)) pad))

(* A nestjoin's output row: [x] extended with [attr], the set of
   [body x y] over its matches [ms]. *)
let attach_group body attr x ms =
  Value.concat x (Value.tuple [ (attr, Value.set (List.map (body x) ms)) ])

(* The one match-and-emit loop of every probing join.  [feed] pushes the
   left batches; the semijoin and antijoin narrow each one's selection
   vector in place (no copy), the other kinds fill owned batches, deduped
   when [dedup].  Ticks nothing itself: the probe does.  Only [feed] may
   reach the plan executor, so a pool task can run it over windows of a
   partition. *)
let emit_join ?(dedup = false) emit probe feed bsink =
  let narrow keep =
    feed (fun b ->
        Batch.keep_rows b keep;
        if Batch.live b > 0 then bsink b)
  in
  let fill per_row =
    let add, flush = row_builder ~dedup bsink in
    feed (Batch.iter (per_row add));
    flush ()
  in
  let pairs add x ms = List.iter (fun y -> add (Value.concat x y)) ms in
  match emit with
  | Semi -> narrow probe.exists
  | Anti -> narrow (fun x -> not (probe.exists x))
  | Concat -> fill (fun add x -> pairs add x (probe.matches x))
  | Outer null_row ->
    fill (fun add x ->
        match probe.matches x with
        | [] -> add (Value.concat x null_row)
        | ms -> pairs add x ms)
  | Group (body, attr) ->
    fill (fun add x -> add (attach_group body attr x (probe.matches x)))

(* Materialize [p]'s full row list.  Leaves return their list directly;
   breakers run list-at-a-time over materialized inputs; every streaming
   node ([Plan.streams_output]) runs as one fused batched loop collected
   by [gather].  [root] marks the plan's root, whose rows [run]
   canonicalizes with [Value.set]: it skips its own dedup, and only its
   own (its inputs stay duplicate-free). *)
let rec exec_node ?(root = false) (cat : Catalog.t) (p : Plan.t) :
    Value.t list =
  match p with
  | Plan.Scan name ->
    M.incr ~n:(Catalog.cardinality cat name) c_scan_row;
    Catalog.rows cat name
  | Plan.IndexScan { index; var; lookup; residual; rename; _ } ->
    let ren = renamer rename in
    let matched = List.map ren (index_fetch cat (find_index cat index) lookup) in
    if Expr.is_true residual then matched
    else begin
      let pred = Compile.pred1 cat ~var residual in
      List.filter
        (fun row ->
          M.incr c_filter_eval;
          pred row)
        matched
    end
  | Plan.EvalOp e -> Value.as_set (Eval.run cat e)
  | Plan.Materialized rows -> rows
  | Plan.JoinOp
      { algo = Plan.Sort_merge; kind; xvar; yvar; keys; residual; left; right }
    ->
    sort_merge cat ~xvar ~yvar ~keys ~residual (join_emit kind) left right
  | Plan.NestjoinOp
      { algo = Plan.Sort_merge; xvar; yvar; keys; residual; body; attr; left;
        right } ->
    let body = Compile.expr2 cat ~vars:(xvar, yvar) body in
    sort_merge cat ~xvar ~yvar ~keys ~residual (Group (body, attr)) left right
  | Plan.JoinOp
      { algo = Plan.Partitioned { partitions; mem_budget }; kind; xvar; yvar;
        keys; residual; left; right } ->
    (match kind with
     | Expr.LeftOuter _ -> exec_error "partitioned join does not support outer joins"
     | Expr.Inner | Expr.Semi | Expr.Anti -> ());
    exec_partitioned cat ~partitions ~mem_budget ~xvar ~yvar ~keys ~residual
      ~left ~right (fun () -> join_emit kind)
  | Plan.NestjoinOp
      { algo = Plan.Partitioned { partitions; mem_budget }; xvar; yvar; keys;
        residual; body; attr; left; right } ->
    let body_s = Compile.expr2_spawner cat ~vars:(xvar, yvar) body in
    exec_partitioned cat ~partitions ~mem_budget ~xvar ~yvar ~keys ~residual
      ~left ~right (fun () -> Group (body_s (), attr))
  | Plan.NestOp { attrs; into; input } ->
    (* Grouping is a breaker (all input must arrive before any group is
       complete), but the input still streams straight into the group
       tables — no materialized input list.  The grouping attributes come
       from the first row pushed, as before. *)
    let groups = VTbl.create 64 in
    let order = ref [] in
    let group_by = ref [] in
    let seen_first = ref false in
    push cat input (fun row ->
        if not !seen_first then begin
          seen_first := true;
          let all_fields = Value.field_names row in
          group_by := List.filter (fun f -> not (List.mem f attrs)) all_fields
        end;
        let k = Value.project row !group_by in
        let member = Value.project row attrs in
        match VTbl.find_opt groups k with
        | Some members -> members := member :: !members
        | None ->
          VTbl.add groups k (ref [ member ]);
          order := k :: !order);
    List.rev_map
      (fun k ->
        Value.concat k (Value.tuple [ (into, Value.set !(VTbl.find groups k)) ]))
      !order
  | Plan.DivideOp (a, b) ->
    (* Hash-based relational division: index the dividend, test each
       candidate quotient row against every divisor row by lookup. *)
    let xs = rows cat a and ys = rows cat b in
    (match xs, ys with
     | [], _ -> []
     | _, [] -> xs (* divisor schema unobservable; B = {} (cf. Eval) *)
     | x0 :: _, y0 :: _ ->
       let b_attrs = Value.field_names y0 in
       let a_attrs =
         List.filter (fun f -> not (List.mem f b_attrs)) (Value.field_names x0)
       in
       let pair_index = VTbl.create (tbl_size cat a) in
       List.iter
         (fun x ->
           M.incr c_hash_build;
           VTbl.replace pair_index x ())
         xs;
       let candidates = dedup (List.map (fun x -> Value.project x a_attrs) xs) in
       List.filter
         (fun q ->
           List.for_all
             (fun y ->
               M.incr c_hash_probe;
               VTbl.mem pair_index (Value.concat q y))
             ys)
         candidates)
  | Plan.Pnhl { attr; elem_key; row_key; into; mem_budget; left; right } ->
    exec_pnhl cat ~root ~attr ~elem_key ~row_key ~into ~mem_budget ~left ~right
  | Plan.Filter _ | Plan.MapOp _ | Plan.ProjectOp _ | Plan.FlattenOp _
  | Plan.UnionOp _ | Plan.InterOp _ | Plan.DiffOp _ | Plan.ProductOp _
  | Plan.MemberJoin _ | Plan.RenameOp _ | Plan.UnnestOp _ | Plan.IndexJoin _
  | Plan.JoinOp { algo = Plan.Hash | Plan.Nested_loop; _ }
  | Plan.NestjoinOp { algo = Plan.Hash | Plan.Nested_loop; _ } ->
    gather ~root cat p

(* Dispatch through the collector when one is installed; the common case
   costs one flag-and-deref test per node, and nothing per tuple. *)
and rows ?(root = false) cat p =
  match !collector with
  | None -> exec_node ~root cat p
  | Some c -> profiled ~root c cat p

(* Collect a fused chain's output into a list (the only materialization
   the chain performs).  The sink is a row vector pre-sized from the
   planner's cardinality estimate and listed once at the end — not a
   cons-accumulator reversed afterwards.  Calls [bpush_op] directly
   rather than [bpush]: the root node's profile sample comes from the
   [profiled] bracket around this call, not a streamed record. *)
and gather ~root cat p =
  let vec = Batch.Vec.create (tbl_size cat p) in
  bpush_op ~root cat p (Batch.Vec.push_batch vec);
  Batch.Vec.to_list vec

(* Feed [p]'s rows to a row sink: fused edges stream batches and unpack
   them; breaker inputs materialize as a list.  A fused node inside a
   collected run still records its output row count — with zero
   time/work/allocation, since the loop owner's exclusive figures cover
   the whole fused chain (see [Profile]). *)
and push cat p sink =
  if Plan.streams_output p then bpush_stream cat p (Batch.iter sink)
  else List.iter sink (rows cat p)

(* Run [bpush_op] on a streamable node, recording the streamed row
   count when a collector is installed. *)
and bpush_stream cat p bsink =
  match !collector with
  | None -> bpush_op cat p bsink
  | Some c ->
    let n = ref 0 in
    bpush_op cat p (fun b ->
        n := !n + Batch.live b;
        bsink b);
    record_streamed c p !n

(* Feed [p]'s rows to a batch sink: fused edges stream batches straight
   through; breaker inputs materialize as a list and re-pack. *)
and bpush cat p bsink =
  if Plan.streams_output p then bpush_stream cat p bsink else repack bsink (rows cat p)

and record_streamed c p n =
  c.samples <- { sample_plan = p; out_rows = n; usage = M.zero } :: c.samples

(* Batched streaming implementations.  Each case emits its rows in the
   canonical pipeline order, ticking counters per batch ([M.incr ~n] is k
   single ticks, so totals do not depend on the batch size).  Filters and
   semi/anti probes narrow the incoming batch's selection vector instead
   of copying survivors, and producing operators build owned batches
   through [row_builder].  On a mid-batch exception a batch-granular
   tick may count rows past the failing one — error paths only,
   documented in DESIGN.md.  [root] skips the dedup of operators that
   have one ([run] canonicalizes the root's rows). *)
and bpush_op ?(root = false) cat (p : Plan.t) (bsink : Batch.t -> unit) :
    unit =
  (* Batches narrowed to nothing die here rather than flowing on. *)
  let emit_live b = if Batch.live b > 0 then bsink b in
  match p with
  | Plan.Scan name ->
    (* Zero-copy: batches are windows into the catalog's cached row
       array; nothing per row is allocated at the source. *)
    let rs = Catalog.rows_array cat name in
    M.incr ~n:(Array.length rs) c_scan_row;
    windows rs bsink
  | Plan.Filter { var; pred; input; morsel = false } ->
    let pred = Compile.pred1 cat ~var pred in
    bpush cat input (fun b ->
        M.incr ~n:(Batch.live b) c_filter_eval;
        Batch.keep_rows b pred;
        emit_live b)
  | Plan.Filter { var; pred; input; morsel = true } ->
    (* Each task mints its own predicate instance: a compiled closure's
       slot buffer is not shared between domains. *)
    let pred_s = Compile.pred1_spawner cat ~var pred in
    let batches, _ =
      morsels cat input (fun b ->
          M.incr ~n:(Batch.live b) c_filter_eval;
          Batch.keep_rows b (pred_s ()))
    in
    Array.iter emit_live batches
  | Plan.MapOp { var; body; input; morsel = true } ->
    let body_s = Compile.expr1_spawner cat ~var body in
    let _, outs =
      morsels cat input (fun b ->
          let body = body_s () in
          let out = Array.make (Batch.live b) Value.VNull in
          let j = ref 0 in
          Batch.iter
            (fun row ->
              out.(!j) <- body row;
              incr j)
            b;
          out)
    in
    let add, flush = row_builder ~dedup:(not root) bsink in
    Array.iter (Array.iter add) outs;
    flush ()
  | Plan.MapOp { var; body; input; morsel = false } ->
    let body =
      match Compile.expr1_rowmaker cat ~var body with
      | Some f -> f
      | None -> Compile.expr1 cat ~var body
    in
    let add, flush = row_builder ~dedup:(not root) bsink in
    bpush cat input (Batch.iter (fun row -> add (body row)));
    flush ()
  | Plan.ProjectOp (attrs, input) ->
    let sorted = List.sort_uniq String.compare attrs in
    let proj =
      if List.length sorted = List.length attrs then fun row ->
        (* Sorted-merge projection; on a missing attribute re-project
           with [Value.project] so the error message names the field. *)
        (try Value.project_sorted row sorted
         with Value.Type_error _ -> Value.project row attrs)
      else fun row -> Value.project row attrs
    in
    let add, flush = row_builder ~dedup:(not root) bsink in
    bpush cat input (Batch.iter (fun row -> add (proj row)));
    flush ()
  | Plan.FlattenOp input ->
    let add, flush = row_builder ~dedup:(not root) bsink in
    bpush cat input (Batch.iter (fun row -> List.iter add (Value.as_set row)));
    flush ()
  | Plan.UnnestOp (a, input) ->
    let as_row inner =
      match inner with
      | Value.VTuple _ -> inner
      | atom -> Value.tuple [ (a, atom) ]
    in
    let add, flush =
      row_builder ~dedup:(not (root || keyed_apart_from cat a input)) bsink
    in
    push cat input (fun row ->
        let rest = Value.project_away row [ a ] in
        List.iter
          (fun inner -> add (Value.concat (as_row inner) rest))
          (Value.as_set (Value.field row a)));
    flush ()
  | Plan.UnionOp (a, b) when root ->
    bpush cat a bsink;
    bpush cat b bsink
  | Plan.UnionOp (a, b) ->
    (* Both sides narrow through one shared dedup selection — no copy of
       the surviving rows on either side. *)
    let fresh = first_seen () in
    let dedup_batch bt =
      Batch.keep_rows bt fresh;
      emit_live bt
    in
    bpush cat a dedup_batch;
    bpush cat b dedup_batch
  | Plan.InterOp (a, b) ->
    let tbl = VTbl.create (tbl_size cat b) in
    push cat b (fun v -> VTbl.replace tbl v ());
    bpush cat a (fun bt ->
        Batch.keep_rows bt (VTbl.mem tbl);
        emit_live bt)
  | Plan.DiffOp (a, b) ->
    let tbl = VTbl.create (tbl_size cat b) in
    push cat b (fun v -> VTbl.replace tbl v ());
    bpush cat a (fun bt ->
        Batch.keep_rows bt (fun v -> not (VTbl.mem tbl v));
        emit_live bt)
  | Plan.ProductOp (a, b) ->
    let ys = rows cat b in
    let bld = Batch.builder bsink in
    bpush cat a
      (Batch.iter (fun x -> List.iter (fun y -> Batch.add bld (Value.concat x y)) ys));
    Batch.flush bld
  | Plan.RenameOp (pairs, input) ->
    let ren = renamer pairs in
    let bld = Batch.builder bsink in
    bpush cat input (Batch.iter (fun row -> Batch.add bld (ren row)));
    Batch.flush bld
  | Plan.JoinOp
      { algo = (Plan.Hash | Plan.Nested_loop) as algo; kind; xvar; yvar; keys;
        residual; left; right } ->
    let probe = equi_probe cat algo ~xvar ~yvar ~keys residual right in
    emit_join (join_emit kind) probe (bpush cat left) bsink
  | Plan.NestjoinOp
      { algo = (Plan.Hash | Plan.Nested_loop) as algo; xvar; yvar; keys;
        residual; body; attr; left; right } ->
    let body = Compile.expr2 cat ~vars:(xvar, yvar) body in
    let probe = equi_probe cat algo ~xvar ~yvar ~keys residual right in
    emit_join (Group (body, attr)) probe (bpush cat left) bsink
  | Plan.IndexJoin { kind; xvar; yvar; index; keys; residual; rename; left; _ }
    ->
    (match kind with
     | Expr.LeftOuter _ -> exec_error "index join does not support outer joins"
     | Expr.Inner | Expr.Semi | Expr.Anti -> ());
    let probe = index_probe cat ~xvar ~yvar ~index ~keys ~rename residual in
    emit_join (join_emit kind) probe (bpush cat left) bsink
  | Plan.MemberJoin { kind; xvar; yvar; xset; elem_var; elem_key; ykey; left; right }
    ->
    (* With the element itself as the key, a left row's distinct elements
       probe distinct keys, whose buckets share no build row: no row is
       matched twice. *)
    let distinct =
      match elem_key with Expr.Var v -> String.equal v elem_var | _ -> false
    in
    let xset = Compile.expr1 cat ~var:xvar xset in
    let elem_key = Compile.expr2 cat ~vars:(elem_var, xvar) elem_key in
    (* The rows whose key equals a probe key: from a hash table built over
       the right operand, or — pointer-based — straight from the extent's
       oid index, one "oid_lookup" per probe and no build.  An extent that
       lost its oid key since planning ([Catalog.set_rows]) no longer has
       every row in its oid index, so it is built from its rows. *)
    let build right =
      build_table (module VTbl) (tbl_size cat right)
        (Compile.expr1 cat ~var:yvar ykey) (push cat right)
    in
    let find_all, mem =
      match right with
      | Plan.Oid_index table when Catalog.oid_key cat table ->
        let probe = Catalog.deref_opt cat table in
        ((fun k -> Option.to_list (probe k)), fun k -> Option.is_some (probe k))
      | Plan.Oid_index table -> build (Plan.Scan table)
      | Plan.Build right -> build right
    in
    let elems x = Value.as_set (xset x) in
    let matches x = List.concat_map (fun e -> find_all (elem_key e x)) (elems x) in
    let probe =
      {
        matches =
          (match kind with
           | Plan.MNest _ when not distinct -> fun x -> dedup (matches x)
           | _ -> matches);
        exists = (fun x -> List.exists (fun e -> mem (elem_key e x)) (elems x));
      }
    in
    let emit, dedup =
      match kind with
      | Plan.MSemi -> (Semi, false)
      | Plan.MAnti -> (Anti, false)
      | Plan.MInner -> (Concat, not (root || distinct))
      | Plan.MNest { body; attr } ->
        (Group (Compile.expr2 cat ~vars:(xvar, yvar) body, attr), false)
    in
    emit_join ~dedup emit probe (bpush cat left) bsink
  | Plan.IndexScan _ | Plan.EvalOp _ | Plan.Materialized _
  | Plan.JoinOp { algo = Plan.Sort_merge | Plan.Partitioned _; _ }
  | Plan.NestjoinOp { algo = Plan.Sort_merge | Plan.Partitioned _; _ }
  | Plan.NestOp _ | Plan.DivideOp _ | Plan.Pnhl _ ->
    (* Leaves without a batched source re-pack their list (breakers do not
       get here: [bpush] materializes them). *)
    repack bsink (exec_node ~root cat p)

(* The probe of a resident hash or nested-loop join or nestjoin. *)
and equi_probe cat algo ~xvar ~yvar ~keys residual right =
  match algo with
  | Plan.Hash ->
    hash_prober cat ~xvar ~yvar ~keys residual ~hint:(tbl_size cat right)
      (push cat right)
  | _ -> nl_probe cat ~xvar ~yvar ~keys residual (rows cat right)

(* Morsel-over-batch: buffer [input]'s batches (the breaker the
   concurrent claim requires) and run [task] on each as one pool task;
   the batches and the task results come back in input order. *)
and morsels :
      'a. Catalog.t -> Plan.t -> (Batch.t -> 'a) -> Batch.t array * 'a array =
 fun cat input task ->
  let buf = ref [] in
  bpush cat input (fun b -> buf := b :: !buf);
  let batches = Array.of_list (List.rev !buf) in
  let results =
    Pool.run (Array.length batches)
      (par_task "task:morsel" (fun i -> task batches.(i)))
  in
  (batches, results)

and profiled ~root c cat p =
  if Span.tracing () then
    Span.with_span ("op:" ^ Plan.node_label p) (fun () ->
        profiled_run ~root c cat p)
  else profiled_run ~root c cat p

and profiled_run ~root c cat p =
  let outer = c.stack in
  let children = ref M.zero in
  c.stack <- children :: outer;
  let result, usage =
    Fun.protect
      ~finally:(fun () -> c.stack <- outer)
      (fun () -> M.measure (fun () -> exec_node ~root cat p))
  in
  (match outer with
   | parent :: _ -> parent := M.add !parent usage
   | [] -> ());
  let out_rows = List.length result in
  c.samples <-
    { sample_plan = p; out_rows; usage = M.sub usage !children } :: c.samples;
  Span.add_attr "rows" (Span.AInt out_rows);
  result

(* A partitioned hash join or nestjoin ([Plan.Partitioned]).  Both inputs
   are hash-partitioned on the first key into max(partitions,
   ceil(|right| / mem_budget)) partitions.  A left row lands in exactly one
   partition, with every right row of its key, so joining the pairs
   independently and concatenating their results in partition order joins
   the inputs, and a nestjoin's match groups are complete in their pair.
   The pairs run as pool tasks, each with its own compiled closures; their
   count comes from the plan and the data, never from the pool, so results
   and counters do not depend on the pool size.

   While the right side fits the budget (always, when there is none) the
   partitions are lists both inputs stream into.  Past it, the right side
   is materialized first, since its size sets the partition count; both
   sides then go to one spill file per partition.  A partition whose build
   side is still past twice the budget (key skew defeated the split) is
   read back and partitioned again with the next depth's salt, until
   splitting makes no progress or at depth 8, where the resident join is
   the best remaining option.  Every spill file, re-splits included, is
   written here on the calling domain before any pair runs; each task
   reads back and unlinks its own pair, so at K domains up to K pairs are
   resident.  The 2x slack mirrors classic Grace practice: hash partitions of a uniform
   key spread around the budget, and re-spilling every slightly-oversized
   partition would cost more I/O than the marginally larger build table.

   Ticks: "partition_row" per row per partitioning pass, "partition" per
   partition, and the spill counters per file and row. *)
and exec_partitioned cat ~partitions ~mem_budget ~xvar ~yvar ~keys ~residual
    ~left ~right emit =
  if mem_budget <= 0 then
    exec_error "partitioned join: memory budget must be positive";
  let kx0, ky0 =
    match keys with
    | k :: _ -> k
    | [] -> exec_error "partitioned join without equi keys"
  in
  let kx0_s = Compile.expr1_spawner cat ~var:xvar kx0
  and ky0_s = Compile.expr1_spawner cat ~var:yvar ky0 in
  let prober = hash_prober cat ~xvar ~yvar ~keys residual in
  let partitions = max 1 partitions in
  let hint = max 16 (min mem_budget (tbl_size cat right / partitions)) in
  (* One pair: its own table and closures, and the emit loop over
     zero-copy windows of its left rows. *)
  let join_pair xs ys =
    let xs = Array.of_list xs in
    let out = Batch.Vec.create (Array.length xs) in
    emit_join (emit ()) (prober ~hint (fun f -> List.iter f ys)) (windows xs)
      (Batch.Vec.push_batch out);
    Batch.Vec.to_list out
  in
  let run_pairs n pair =
    List.concat (Array.to_list (Pool.run n (par_task "task:partition" pair)))
  in
  let spilled xfeed ys nys =
    let files = ref [] in
    (* The pairs to join, as (left files, right files, partition), in
       partition order, a skewed partition replaced by its split. *)
    let rec split ~depth xfeed yfeed nys =
      let n = max (if depth = 0 then partitions else 1) ((nys - 1) / mem_budget + 1) in
      let ysp = spill_partitions n (hash_route ~depth n (ky0_s ())) yfeed in
      files := ysp :: !files;
      let xsp = spill_partitions n (hash_route ~depth n (kx0_s ())) xfeed in
      files := xsp :: !files;
      M.incr ~n c_partition;
      List.init n Fun.id
      |> List.concat_map (fun b ->
             let nys_b = Option.fold ~none:0 ~some:Rowcodec.spill_rows ysp.(b) in
             if nys_b > 2 * mem_budget && nys_b < nys && depth < 8 then
               let xs = read_partition xsp b and ys = read_partition ysp b in
               split ~depth:(depth + 1) (fun f -> List.iter f xs) (fun f -> List.iter f ys) nys_b
             else [ (xsp, ysp, b) ])
    in
    Fun.protect ~finally:(fun () -> List.iter remove_partitions !files) @@ fun () ->
    let pairs = Array.of_list (split ~depth:0 xfeed (fun f -> List.iter f ys) nys) in
    run_pairs (Array.length pairs) (fun i ->
        let xsp, ysp, b = pairs.(i) in
        join_pair (read_partition xsp b) (read_partition ysp b))
  in
  let resident yfeed =
    let route key = hash_route ~depth:0 partitions (key ()) in
    let yparts = route_rows partitions (route ky0_s) yfeed in
    let xparts = route_rows partitions (route kx0_s) (push cat left) in
    M.incr ~n:partitions c_partition;
    run_pairs partitions (fun b -> join_pair xparts.(b) yparts.(b))
  in
  if mem_budget = max_int then resident (push cat right)
  else begin
    let ys = rows cat right in
    let nys = List.length ys in
    if nys > mem_budget then spilled (push cat left) ys nys
    else resident (fun f -> List.iter f ys)
  end

(* Sort-merge join ([Concat]) and nestjoin ([Group], the adapted
   sort-merge of Section 6.1): sort both inputs on the first key, then
   pair each left run with the equal-key right run, checking the
   remaining keys and the residual per pair.  A left run without a
   partner emits nothing, or empty groups.  Rows come out in run order.
   One "sm_cmp" per comparison of run heads and per sort comparison.
   The inputs are resident lists, so the sorts run in memory: there is no
   build table for a budget to bound. *)
and sort_merge cat ~xvar ~yvar ~keys ~residual emit left right =
  let xs = rows cat left and ys = rows cat right in
  match keys, emit with
  | [], _ -> exec_error "sort-merge join without equi keys"
  | _, (Semi | Anti | Outer _) -> exec_error "sort-merge supports only inner joins"
  | (kx, ky) :: rest_keys, (Concat | Group _) ->
    let kxf = Compile.expr1 cat ~var:xvar kx
    and kyf = Compile.expr1 cat ~var:yvar ky in
    let rxkey = key_fns cat xvar `Left rest_keys
    and rykey = key_fns cat yvar `Right rest_keys in
    let residual = residual_fn cat xvar yvar residual in
    let cmp (a, _) (b, _) =
      M.incr c_sm_cmp;
      Value.compare a b
    in
    let xs = List.sort cmp (List.map (fun row -> (kxf row, row)) xs) in
    let ys = List.sort cmp (List.map (fun row -> (kyf row, row)) ys) in
    let matches yrun x =
      List.filter (fun y -> Key.equal (rxkey x) (rykey y) && residual x y) yrun
    in
    let emit_run xrun yrun acc =
      List.fold_left
        (fun acc x ->
          match emit with
          | Group (body, attr) -> attach_group body attr x (matches yrun x) :: acc
          | _ -> List.rev_append (List.map (Value.concat x) (matches yrun x)) acc)
        acc xrun
    in
    let rec run_of key acc = function
      | (k, v) :: rest when Value.equal k key -> run_of key (v :: acc) rest
      | rest -> (List.rev acc, rest)
    in
    let rec merge xs ys acc =
      match xs, ys with
      | [], _ -> List.rev acc
      | (kx0, _) :: _, [] ->
        let xrun, xs = run_of kx0 [] xs in
        merge xs [] (emit_run xrun [] acc)
      | (kx0, _) :: _, (ky0, _) :: _ ->
        M.incr c_sm_cmp;
        let c = Value.compare kx0 ky0 in
        if c > 0 then merge xs (snd (run_of ky0 [] ys)) acc
        else
          let xrun, xs = run_of kx0 [] xs in
          let yrun, ys = if c = 0 then run_of ky0 [] ys else ([], ys) in
          merge xs ys (emit_run xrun yrun acc)
    in
    merge xs ys []

(* The Partitioned Nested-Hashed-Loops algorithm of [DeLa92]: the flat base
   table (right operand) is the build table; it is split into segments of
   at most [mem_budget] rows (the segments that fit in main memory).  Each
   segment builds a hash table on the row key and probes it with every
   left row's set-valued attribute elements, accumulating a partial match
   list per left row; the partials merge in segment order.  The segments
   are independent, so they run as pool tasks (a plain loop at one domain
   or one segment), and each task's build and probe work is the same
   whichever domain runs it.  Left rows with empty attribute sets survive
   with an empty result — unlike the unnest-join-nest pipeline, which
   loses them. *)
and exec_pnhl cat ~root ~attr ~elem_key ~row_key ~into ~mem_budget ~left
    ~right =
  if mem_budget <= 0 then exec_error "pnhl: memory budget must be positive";
  let xs = Array.of_list (rows cat left) and ys = rows cat right in
  let row_key_s = Compile.expr1_spawner cat ~var:"row" row_key in
  let elem_key_s = Compile.expr1_spawner cat ~var:"elem" elem_key in
  let seg_hint = tbl_size ~cap:mem_budget cat right in
  let run_tasks nsegs segment_of =
    Pool.run nsegs
      (par_task "task:pnhl" (fun s ->
           let row_key = row_key_s () and elem_key = elem_key_s () in
           M.incr c_pnhl_partition;
           let segment = segment_of s in
           let tbl = VTbl.create seg_hint in
           List.iter
             (fun y ->
               M.incr c_pnhl_build;
               VTbl.add tbl (row_key y) y)
             segment;
           let partial = Array.make (Array.length xs) [] in
           Array.iteri
             (fun i x ->
               let elems = Value.as_set (Value.field x attr) in
               List.iter
                 (fun e ->
                   M.incr c_pnhl_probe;
                   partial.(i) <- VTbl.find_all tbl (elem_key e) @ partial.(i))
                 elems)
             xs;
           partial))
  in
  (* A build table that fits is one resident segment.  Past the budget,
     the i-th row goes to segment i / mem_budget, spilled on the calling
     domain (spill counters cannot depend on the pool size); each pool
     task then reads back — and unlinks — its own file, so at K domains up
     to K segments are resident. *)
  let nys = List.length ys in
  let partials =
    if nys = 0 then [||]
    else if nys <= mem_budget then run_tasks 1 (fun _ -> ys)
    else begin
      let nsegs = ((nys - 1) / mem_budget) + 1 in
      let i = ref (-1) in
      let route _ =
        incr i;
        !i / mem_budget
      in
      let sps = spill_partitions nsegs route (fun f -> List.iter f ys) in
      Fun.protect ~finally:(fun () -> remove_partitions sps) (fun () ->
          run_tasks nsegs (read_partition sps))
    end
  in
  let group i = Array.fold_left (fun acc partial -> partial.(i) @ acc) [] partials in
  let out =
    Array.to_list (Array.mapi (fun i x -> Value.except x [ (into, Value.set (group i)) ]) xs)
  in
  if root || keyed_apart_from cat into left then out else dedup out

(* Execute a plan, returning its result as a canonical set value.
   [Value.set] sorts and dedups the root's rows, so the root runs without
   a dedup of its own; rows that come out already in canonical order (a
   [select d] over an extent, EQ3.2 and EQ5) cost it one linear check. *)
let run cat p = Value.set (rows ~root:true cat p)

(* Exported without [?root]: any node's rows, duplicate-free. *)
let rows cat p = rows cat p

(* Run [f] with a fresh collector installed and return its result together
   with the recorded samples in completion (post-order) order.  Collectors
   nest: the previous one is restored afterwards and does not observe the
   inner run. *)
let collect f =
  let c = { samples = []; stack = [] } in
  let saved = !collector in
  collector := Some c;
  let result = Fun.protect ~finally:(fun () -> collector := saved) (fun () -> f ()) in
  (result, List.rev c.samples)
