(** Plan execution.

    Parameter expressions (join keys, filter predicates, residuals, map and
    nestjoin bodies) are compiled once per operator into closures
    ({!Njq_adl.Compile}) before iterating; the engine organizes the
    iteration set-oriented: hash tables for equi/member/nest joins, member
    joins that probe an extent's oid index instead (pointer-based), a
    sort-merge alternative, and PNHL with memory-budget partitioning.

    There is one executor: batched push.  Operators for which
    {!Plan.streams_output} holds push {!Batch} column batches into their
    consumer, so chains like [Scan -> Filter -> Map -> hash probe] run as
    single fused loops with no intermediate lists: scans emit zero-copy
    windows over the catalog's row array, and filters narrow selection
    vectors with their compiled predicates instead of copying survivors.
    Every probing join (hash,
    nested-loop, index and member joins and nestjoins, and each partition
    pair of a partitioned join) is a right-side probe — which rows match
    a left row, does any — driven by one match-and-emit loop over left
    batches: semi- and antijoins narrow the batch's selection vector,
    joins concatenate, outer joins pad, nestjoins attach the group.
    Pipeline breakers (hash build sides, sort-merge inputs, grouping,
    division, PNHL segments, join partitions, morsel operators' batch
    buffers) materialize only what their semantics require.  Each plan
    operator has one path here; its policy values ({!Plan.Partitioned},
    the [morsel] flag, PNHL's [mem_budget]) only change how that path
    runs.  Rows, their order and counter totals do not depend on
    {!Batch.size} or the pool size ([test/test_batch.ml]);
    {!Njq_adl.Eval} is the value oracle.

    Larger-than-memory execution: a partitioned join whose right side, or
    a PNHL whose build table, is past its [mem_budget] writes its
    partitions to {!Rowcodec} temp files on the calling domain (a
    partition skewed past twice the budget is split again there first);
    pool tasks read them back one partition each, so at K domains up to K
    partitions are resident.  Results are bit-identical to the fully
    resident run.  Sort-merge sorts its resident inputs in memory.

    Counters tick once per logical event, whichever loop runs the
    operator (see {!Njq_obs.Metrics}): ["scan_row"],
    ["filter_eval"], ["hash_build"], ["hash_probe"], ["nl_pair"],
    ["sm_cmp"], ["partition"], ["partition_row"], ["pnhl_partition"],
    ["pnhl_build"], ["pnhl_probe"], plus ["oid_lookup"] from catalog
    dereferencing; spilling adds ["spill_part"], ["spill_row"] and
    ["spill_bytes"]. *)

open Njq_adl

exception Exec_error of string

(** Execute a plan, returning its rows (not canonicalized). *)
val rows : Catalog.t -> Plan.t -> Value.t list

(** Execute a plan, returning the result as a canonical set value. *)
val run : Catalog.t -> Plan.t -> Value.t

(** {2 Non-perturbing per-operator profiling}

    One measurement per plan-node execution, taken around a normal
    {!rows} run — the plan executes unchanged, so row counts and counter
    totals are exactly those of an unprofiled run.  A fused chain runs as
    one loop: the node that owns the loop gets the measured sample, and
    each operator fused into it records its exact output row count with
    zero time/work/allocation (the owner's exclusive figures cover the
    whole chain; see {!Profile}).  See {!Profile} for the tree-shaped
    report. *)

type node_sample = {
  sample_plan : Plan.t;
      (** The executed node; identity is physical — compare with [==]. *)
  out_rows : int;
  usage : Njq_obs.Metrics.usage;
      (** What the node used, exclusive of its children. *)
}

(** [collect f] runs [f] with a collector installed and returns its result
    with the samples in completion (post-order) order.  Nested [collect]s
    shadow the outer collector. *)
val collect : (unit -> 'a) -> 'a * node_sample list
