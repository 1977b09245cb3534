(* EXPLAIN ANALYZE: join the non-perturbing per-operator samples from
   [Exec.collect] with the cost model's cardinality estimates, per plan
   node, into a tree-shaped report with estimated vs actual rows and the
   q-error of each estimate.

   Samples are keyed by the physical identity of the plan node.  A node
   that executes more than once (a physically shared subtree in a
   hand-built plan) accumulates: [calls] counts executions, times, work
   and allocation sum, and [actual_rows] keeps the last run's cardinality
   (identical runs being deterministic).

   Attribution under fusion: a fused chain runs as one loop owned by the
   node [Exec.rows] was called on — that node's exclusive
   time/work/allocation covers the whole chain, while each operator fused
   into it still reports its exact [actual_rows] (and [calls]) with zeros
   elsewhere.  Pipeline breakers keep per-node brackets.  Each node's
   [actual_rows] equals the length of [Exec.rows] on its subtree.  The
   root runs without a dedup of its own ([Exec.run] canonicalizes with
   [Value.set]), so its sample may count duplicates; it reports the
   canonical result's size instead, which is [Exec.rows]'s length too. *)

open Njq_adl

type node = {
  plan : Plan.t;
  label : string;
  depth : int;
  est_rows : float;  (* Cost.rows_out estimate under Stats.cached *)
  actual_rows : int;
  qerror : float;
  calls : int;
  wall_ns : int;  (* exclusive of children, summed over calls *)
  cpu_s : float;
  work : (string * int) list;
  minor_words : float;  (* every domain's minor words, exclusive, summed *)
  major_words : float;
  children : node list;
}

(* The symmetric multiplicative error of the estimate, >= 1.0; both sides
   are clamped to 1 so empty results don't divide by zero. *)
let qerror ~est ~actual =
  let est = Float.max 1.0 est and actual = Float.max 1.0 (float_of_int actual) in
  Float.max (est /. actual) (actual /. est)

(* Execute [plan] under a collector and fold the samples back onto the
   tree.  The estimates use the statistics the planner costs with, taken
   after the run. *)
let run (cat : Catalog.t) (plan : Plan.t) : Value.t * node =
  let result, samples = Exec.collect (fun () -> Exec.run cat plan) in
  let stats = Stats.cached cat in
  let rec build depth p =
    let mine =
      List.filter (fun (s : Exec.node_sample) -> s.sample_plan == p) samples
    in
    let actual_rows =
      if depth = 0 then Value.set_size result
      else match List.rev mine with [] -> 0 | last :: _ -> last.Exec.out_rows
    in
    let u =
      List.fold_left
        (fun acc (s : Exec.node_sample) -> Njq_obs.Metrics.add acc s.usage)
        Njq_obs.Metrics.zero mine
    in
    let est_rows = Cost.rows_out ~stats cat p in
    {
      plan = p;
      label = Plan.node_label p;
      depth;
      est_rows;
      actual_rows;
      qerror = qerror ~est:est_rows ~actual:actual_rows;
      calls = List.length mine;
      wall_ns = u.wall_ns;
      cpu_s = u.cpu_s;
      work = u.work;
      minor_words = u.minor_words;
      major_words = u.major_words;
      children = List.map (build (depth + 1)) (Plan.children p);
    }
  in
  (result, build 0 plan)

(* Pre-order flattening, this node first. *)
let rec preorder n = n :: List.concat_map preorder n.children

let max_qerror root =
  List.fold_left (fun acc n -> Float.max acc n.qerror) 1.0 (preorder root)

let pp ppf root =
  Fmt.pf ppf "%-36s %10s %10s %8s %10s %10s  %s@." "operator" "est" "actual"
    "q-err" "ms" "minor_kw" "work";
  List.iter
    (fun n ->
      let indent = String.make (2 * n.depth) ' ' in
      let label =
        if n.calls > 1 then Fmt.str "%s (x%d)" n.label n.calls else n.label
      in
      Fmt.pf ppf "%s%-*s %10.0f %10d %8.2f %10.3f %10.1f  %s@." indent
        (max 1 (36 - String.length indent))
        label n.est_rows n.actual_rows n.qerror
        (Njq_obs.Clock.ns_to_ms n.wall_ns)
        (n.minor_words /. 1000.0)
        (String.concat ", "
           (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) n.work)))
    (preorder root)

let rec to_json n : Njq_obs.Json.t =
  let open Njq_obs.Json in
  Obj
    ([
       ("operator", Str n.label);
       ("est_rows", Float n.est_rows);
       ("actual_rows", Int n.actual_rows);
       ("qerror", Float n.qerror);
       ("calls", Int n.calls);
       ("wall_ns", Int n.wall_ns);
       ("cpu_s", Float n.cpu_s);
       ("minor_words", Float n.minor_words);
       ("major_words", Float n.major_words);
       ("work", Obj (List.map (fun (k, v) -> (k, Int v)) n.work));
     ]
    @
    match n.children with
    | [] -> []
    | cs -> [ ("children", List (Stdlib.List.map to_json cs)) ])
