(** Prepared-query plan cache: an LRU over compiled physical plans keyed
    on normalized query text + catalog identity/epoch + an options string.
    A hit skips the whole derivation pipeline; the caller supplies it as
    the [derive] closure, so the engine never depends on the frontend.
    Catalog changes bump the epoch ({!Catalog.epoch}), making stale
    entries unaddressable — they age out through the LRU.  Process-global,
    main-domain only.  Hits/misses/evictions are the
    ["plancache_hit"/"plancache_miss"/"plancache_evict"] metrics.

    Numeric literals in the query text are normalized into [?i]
    placeholders before keying, so queries differing only in constants
    share one prepared plan whose parameters are bound per call via
    {!Plan.map_exprs}.  Skipped for texts already containing ['?']
    (explicit prepared templates), for catalogs with declared indexes (a
    [?i] point lookup plans onto its index like a literal, but range
    bounds are priced from their literal values), and for 6-/8-digit
    integer literals (date-shaped, coerced by the frontend at translation
    time).  Templating events tick the ["plancache_autoparam"] metric. *)

open Njq_adl

(** Maximum number of cached plans (default 64); 0 disables caching. *)
val capacity : int ref

(** [find_or_derive cat ?options text ~derive] returns the cached plan for
    [(cat, epoch, options, template of text)], or runs [derive], stores
    its result (evicting least-recently-used entries past {!capacity}) and
    returns it.  [derive] receives the text to derive from — the
    auto-parameterized template when templating fired, the normalized text
    otherwise — and must derive exactly that text. *)
val find_or_derive :
  Catalog.t -> ?options:string -> string -> derive:(string -> Plan.t) -> Plan.t

(** Like {!find_or_derive}, also reporting whether the plan came from the
    cache ([true] = hit) — the bit the query log records per event. *)
val find_or_derive_report :
  Catalog.t ->
  ?options:string ->
  string ->
  derive:(string -> Plan.t) ->
  Plan.t * bool

(** Collapse whitespace runs and trim — the key normalization applied to
    query text. *)
val normalize : string -> string

(** [parameterize text] is the template/constants split applied by
    auto-parameterization: numeric literals (minus the date-shaped
    exclusions) become [?i] placeholders, returned alongside the extracted
    values in placeholder order.  [(text, \[\])] when nothing extracts. *)
val parameterize : string -> string * Value.t list

val clear : unit -> unit
val size : unit -> int
val hits : unit -> int
val misses : unit -> int
val evictions : unit -> int
