(** Prepared-query plan cache: an LRU over compiled physical plans keyed
    on normalized query text + catalog identity/epoch + the pool size
    ({!Pool.domains}) and memory budget ({!Memory.budget}) that planning
    reads + an options string.  Each entry is the plan of exactly its
    text.  A hit skips the whole derivation pipeline; the caller supplies
    it as the [derive] closure, so the engine never depends on the
    frontend.  Catalog changes bump the epoch ({!Catalog.epoch}), making
    stale entries unaddressable — they age out through the LRU.
    Process-global, main-domain only.  Hits/misses/evictions are the
    ["plancache_hit"/"plancache_miss"/"plancache_evict"] metrics. *)

open Njq_adl

(** Maximum number of cached plans (default 64); 0 disables caching. *)
val capacity : int ref

(** [find_or_derive cat ?options text ~derive] returns the cached plan for
    [(cat, epoch, domains, budget, options, normalized text)] and [true],
    or runs [derive], stores its result (evicting least-recently-used
    entries past {!capacity}) and returns it with [false] — the hit bit
    the query log records per event.  [derive] must derive the plan of
    [text]. *)
val find_or_derive :
  Catalog.t ->
  ?options:string ->
  string ->
  derive:(unit -> Plan.t) ->
  Plan.t * bool

(** Collapse whitespace runs and trim — the key normalization applied to
    query text. *)
val normalize : string -> string

val clear : unit -> unit
val size : unit -> int
val hits : unit -> int
val misses : unit -> int
val evictions : unit -> int
