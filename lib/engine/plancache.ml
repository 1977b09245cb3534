(* Prepared-query plan cache: an LRU over compiled physical plans, keyed
   on the normalized query text, the catalog identity and epoch, and a
   caller-chosen options string.  A hit returns the stored plan without
   running any of the derivation pipeline (translate → rewrite → typecheck
   → plan) — the caller passes that pipeline as the [derive] closure, so
   this module needs no dependency on the frontend.

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
let c_autoparam = M.counter "plancache_autoparam"

(* Maximum number of cached plans; 0 disables caching entirely. *)
let capacity = ref 64

type key = {
  cat_id : int;
  epoch : int;
  options : string; (* anything that changes derivation: mode, domains… *)
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

(* ------------------------------------------------------------------ *)
(* Auto-parameterization                                               *)
(*                                                                     *)
(* Queries that differ only in numeric constants should share one      *)
(* prepared plan.  [parameterize] rewrites the normalized text into a  *)
(* template — numeric literals become ?0 ?1 ... placeholders — and     *)
(* collects the literal values.  The cache stores the template's       *)
(* (parameterized) plan; each call binds the collected constants back  *)
(* in with [Plan.map_exprs], a pure tree rebuild far cheaper than the  *)
(* derivation pipeline, and hoists the subqueries they close.          *)
(*                                                                     *)
(* Guards, all falling back to exact-text caching (today's behavior):  *)
(* - texts already containing '?' are explicit prepared templates;     *)
(* - catalogs with declared indexes keep literal constants: a point    *)
(*   lookup on ?i now uses its index like a literal one, but a range    *)
(*   bound is priced from its literal value (min/max interpolation),    *)
(*   and a ?i bound falls back to a fixed selectivity;                 *)
(* - 6- and 8-digit integer literals are left alone: the paper writes  *)
(*   dates as yymmdd/yyyymmdd integer literals and the frontend        *)
(*   coerces them against date-typed attributes at translation time,   *)
(*   which a type-less placeholder cannot reproduce.                   *)
(* ------------------------------------------------------------------ *)

let is_digit ch = ch >= '0' && ch <= '9'

let is_ident_char ch =
  (ch >= 'a' && ch <= 'z') || (ch >= 'A' && ch <= 'Z') || ch = '_' || is_digit ch

(* [parameterize text] returns the template and the extracted constants in
   placeholder order; [(text, [])] when nothing was extracted. *)
let parameterize (text : string) : string * Value.t list =
  let n = String.length text in
  let buf = Buffer.create n in
  let consts = ref [] in
  let emit v =
    let i = List.length !consts in
    consts := v :: !consts;
    Buffer.add_char buf '?';
    Buffer.add_string buf (string_of_int i)
  in
  let rec go i =
    if i < n then
      let ch = text.[i] in
      if ch = '"' then begin
        (* string literal: copy verbatim, honoring escapes *)
        Buffer.add_char buf ch;
        let rec str j =
          if j >= n then j
          else begin
            Buffer.add_char buf text.[j];
            match text.[j] with
            | '"' -> j + 1
            | '\\' when j + 1 < n ->
              Buffer.add_char buf text.[j + 1];
              str (j + 2)
            | _ -> str (j + 1)
          end
        in
        go (str (i + 1))
      end
      else if is_digit ch && (i = 0 || not (is_ident_char text.[i - 1])) then begin
        let rec digits j = if j < n && is_digit text.[j] then digits (j + 1) else j in
        let j = digits i in
        if j < n && text.[j] = '.' && j + 1 < n && is_digit text.[j + 1] then begin
          let k = digits (j + 1) in
          emit (Value.float (float_of_string (String.sub text i (k - i))));
          go k
        end
        else begin
          let len = j - i in
          if len = 6 || len = 8 then
            (* date-shaped literal (yymmdd / yyyymmdd): keep it in the text
               so translation-time date coercion still fires *)
            Buffer.add_string buf (String.sub text i len)
          else emit (Value.int (int_of_string (String.sub text i len)));
          go j
        end
      end
      else if is_ident_char ch then begin
        (* copy a whole identifier so its trailing digits stay untouched *)
        let rec ident j =
          if j < n && is_ident_char text.[j] then (
            Buffer.add_char buf text.[j];
            ident (j + 1))
          else j
        in
        go (ident i)
      end
      else begin
        Buffer.add_char buf ch;
        go (i + 1)
      end
  in
  go 0;
  match !consts with
  | [] -> (text, [])
  | vs -> (Buffer.contents buf, List.rev vs)

(* Bind extracted constants back into a parameterized plan, then hoist
   what they close: a subquery with a literal in it is a parameterized
   one in the template, which [Consthoist] could not hoist. *)
let bind_consts cat consts plan =
  if consts = [] then plan
  else
    let map = List.mapi (fun i v -> (Expr.param_name i, Expr.Const v)) consts in
    Consthoist.hoist_plan cat (Plan.map_exprs (Analysis.subst map) plan)

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

let find_or_derive_report (cat : Catalog.t) ?(options = "") text
    ~(derive : string -> Plan.t) : Plan.t * bool =
  let text = normalize text in
  let template, consts =
    if (not (String.contains text '?'))
       && not (Catalog.has_indexes cat)
    then parameterize text
    else (text, [])
  in
  if consts <> [] then M.incr c_autoparam;
  let key =
    { cat_id = Catalog.id cat; epoch = Catalog.epoch cat; options;
      text = template }
  in
  match Hashtbl.find_opt table key with
  | Some e ->
    M.incr c_hit;
    incr tick;
    e.stamp <- !tick;
    (bind_consts cat consts e.plan, true)
  | None ->
    M.incr c_miss;
    if consts = [] then begin
      let plan = derive template in
      store key plan;
      (plan, false)
    end
    else begin
      (* Derive the parameterized plan from the template.  If the template
         fails to derive (a literal turned out to be load-bearing for
         typing), fall back to the exact text under its own key. *)
      match derive template with
      | plan ->
        store key plan;
        (bind_consts cat consts plan, false)
      | exception _ ->
        let plan = derive text in
        store { key with text } plan;
        (plan, false)
    end

let find_or_derive cat ?options text ~derive =
  fst (find_or_derive_report cat ?options text ~derive)
