(* Prepared-query plan cache: an LRU over compiled physical plans, keyed
   on the normalized query text, the catalog identity and epoch, the pool
   size and memory budget planning reads, and a caller-chosen options
   string.  A hit returns the stored plan without running any of the
   derivation pipeline (translate → rewrite → hoist → plan) — the caller
   passes that pipeline as the [derive] closure, so this module needs no
   dependency on the frontend.

   Epoch participation makes invalidation free: any catalog change
   ([add_table]/[set_rows]/[create_index]) bumps the epoch, so stale
   entries simply stop being addressable and age out through the LRU.

   The cache is process-global and main-domain only (the CLI, REPL and
   bench all derive plans on the main domain); hits, misses and evictions
   are exported through [Njq_obs.Metrics]. *)

open Njq_adl
module M = Njq_obs.Metrics

let c_hit = M.counter "plancache_hit"
let c_miss = M.counter "plancache_miss"
let c_evict = M.counter "plancache_evict"

(* Maximum number of cached plans; 0 disables caching entirely. *)
let capacity = ref 64

type key = {
  cat_id : int;
  epoch : int;
  domains : int; (* [Pool.domains ()]: parallel policies *)
  budget : int; (* [!Memory.budget]: spill policies and costs *)
  options : string; (* anything else that changes derivation: mode… *)
  text : string; (* normalized query text *)
}

type entry = { plan : Plan.t; mutable stamp : int (* recency *) }

let table : (key, entry) Hashtbl.t = Hashtbl.create 64
let tick = ref 0

(* Normalize query text so formatting differences don't split cache
   entries: collapse every whitespace run to one space and trim. *)
let normalize text =
  let buf = Buffer.create (String.length text) in
  let pending = ref false in
  String.iter
    (fun ch ->
      match ch with
      | ' ' | '\t' | '\n' | '\r' -> if Buffer.length buf > 0 then pending := true
      | ch ->
        if !pending then Buffer.add_char buf ' ';
        pending := false;
        Buffer.add_char buf ch)
    text;
  Buffer.contents buf

let clear () = Hashtbl.reset table
let size () = Hashtbl.length table
let hits () = M.value c_hit
let misses () = M.value c_miss
let evictions () = M.value c_evict

let evict_lru () =
  let oldest =
    Hashtbl.fold
      (fun k e acc ->
        match acc with
        | Some (_, stamp) when stamp <= e.stamp -> acc
        | _ -> Some (k, e.stamp))
      table None
  in
  match oldest with
  | None -> ()
  | Some (k, _) ->
    Hashtbl.remove table k;
    M.incr c_evict

let store key plan =
  if !capacity > 0 then begin
    while Hashtbl.length table >= !capacity do
      evict_lru ()
    done;
    incr tick;
    Hashtbl.replace table key { plan; stamp = !tick }
  end

let find_or_derive (cat : Catalog.t) ?(options = "") text
    ~(derive : unit -> Plan.t) : Plan.t * bool =
  let key =
    { cat_id = Catalog.id cat; epoch = Catalog.epoch cat;
      domains = Pool.domains (); budget = !Memory.budget; options;
      text = normalize text }
  in
  match Hashtbl.find_opt table key with
  | Some e ->
    M.incr c_hit;
    incr tick;
    e.stamp <- !tick;
    (e.plan, true)
  | None ->
    M.incr c_miss;
    let plan = derive () in
    store key plan;
    (plan, false)
