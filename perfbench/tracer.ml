(* Layer spans for the traced run, recorded around the calls the benchmark
   makes into each layer.

   A request (one query, or one serving round) is a root span; the layer
   spans inside it are its direct children and never nest, so a layer's
   self time is its span's duration and the root's self time is the part
   no layer covers.  Spans are aggregated in memory per (request key,
   layer) as they close.  Off, [span] is a direct call and [add] does
   nothing, so the untraced run measures the program alone. *)

module Clock = Njq_obs.Clock
module M = Njq_obs.Metrics

let on = ref false

type acc = { mutable ns : int; mutable calls : int; mutable sum : float }

let table : (string * string, acc) Hashtbl.t = Hashtbl.create 256
let key = ref ""

let reset () = Hashtbl.reset table

let acc k name =
  match Hashtbl.find_opt table (k, name) with
  | Some a -> a
  | None ->
    let a = { ns = 0; calls = 0; sum = 0.0 } in
    Hashtbl.replace table (k, name) a;
    a

let close name t0 =
  let a = acc !key name in
  a.ns <- a.ns + Clock.elapsed_ns t0;
  a.calls <- a.calls + 1

let span name f =
  if not !on then f ()
  else begin
    let t0 = Clock.now_ns () in
    match f () with
    | r ->
      close name t0;
      r
    | exception e ->
      close name t0;
      raise e
  end

(* The root span of one request; [k] keys its layer spans. *)
let request k f =
  key := k;
  span "request" f

(* Add [x] to the named count of the current request. *)
let add name x =
  if !on then begin
    let a = acc !key name in
    a.sum <- a.sum +. x
  end

let par_task = M.histogram "par_task_ns"

(* Serving and plan-cache bookkeeping counters are not executor work. *)
let is_work name =
  not (String.starts_with ~prefix:"serve_" name
       || String.starts_with ~prefix:"plancache_" name)

(* Run [f] (an executor call) and add to the current request its
   work-counter deltas as ["work.<counter>"] and their total as ["work"],
   plus ["minor_words"], ["major_collections"] and the pool's task time
   ["par_task_ns"]. *)
let with_work f =
  if not !on then f ()
  else begin
    let c0 = M.counter_snapshot () in
    let w0 = Gc.minor_words () in
    let g0 = (Gc.quick_stat ()).Gc.major_collections in
    let p0 = Njq_obs.Histogram.sum (M.hist_value par_task) in
    let r = f () in
    add "minor_words" (Gc.minor_words () -. w0);
    add "major_collections"
      (float_of_int ((Gc.quick_stat ()).Gc.major_collections - g0));
    add "par_task_ns"
      (float_of_int (Njq_obs.Histogram.sum (M.hist_value par_task) - p0));
    List.iter
      (fun (name, v) ->
        let d = v - Option.value ~default:0 (List.assoc_opt name c0) in
        if d <> 0 && is_work name then begin
          add ("work." ^ name) (float_of_int d);
          add "work" (float_of_int d)
        end)
      (M.counter_snapshot ());
    r
  end

let keys () =
  List.sort_uniq String.compare (Hashtbl.fold (fun (k, _) _ acc -> k :: acc) table [])

let find k name = Hashtbl.find_opt table (k, name)
let ns k name = match find k name with Some a -> a.ns | None -> 0
let calls k name = match find k name with Some a -> a.calls | None -> 0
let sum k name = match find k name with Some a -> a.sum | None -> 0.0

(* Mean self time per call in ns; 0 when the layer never ran. *)
let mean_ns k name =
  match find k name with
  | Some a when a.calls > 0 -> float_of_int a.ns /. float_of_int a.calls
  | _ -> 0.0

(* Every aggregate as JSON, for the trace file written at exit. *)
let to_json () =
  let open Njq_obs.Json in
  List
    (Hashtbl.fold
       (fun (k, name) a acc ->
         Obj
           [ ("request", Str k); ("span", Str name); ("ns", Int a.ns);
             ("calls", Int a.calls); ("sum", Float a.sum) ]
         :: acc)
       table [])
