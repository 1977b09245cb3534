(* Complex-object values for the ADL algebra.

   The value domain follows the paper's data model: atomic values (integers,
   floats, strings, booleans, dates), object identifiers of the basic type
   [oid], and the tuple and set constructors, closed under arbitrary nesting.
   [VNull] exists only to support the outer-join variant of unnesting by
   grouping discussed in Section 5.2.2 of the paper; no OOSQL query or
   generator produces it directly.

   Invariants (enforced by the smart constructors [tuple] and [set]):
   - tuple fields are sorted by field name and field names are distinct;
   - sets are sorted under [compare] with duplicates removed.
   Thanks to these invariants, structural equality coincides with set/tuple
   semantic equality, which the rewrite-soundness property tests rely on. *)

type t =
  | VNull
  | VBool of bool
  | VInt of int
  | VFloat of float
  | VString of string
  | VDate of int (* yyyymmdd *)
  | VOid of int
  | VTuple of (string * t) list
  | VSet of t list

exception Type_error of string

let type_error fmt = Fmt.kstr (fun s -> raise (Type_error s)) fmt

(* Rank used to order values of different shapes; any total order works as
   long as it is fixed, because it only serves set canonicalization. *)
let rank = function
  | VNull -> 0
  | VBool _ -> 1
  | VInt _ -> 2
  | VFloat _ -> 3
  | VString _ -> 4
  | VDate _ -> 5
  | VOid _ -> 6
  | VTuple _ -> 7
  | VSet _ -> 8

let rec compare a b =
  match a, b with
  | VNull, VNull -> 0
  | VBool x, VBool y -> Bool.compare x y
  | VInt x, VInt y -> Int.compare x y
  | VFloat x, VFloat y -> Float.compare x y
  | VString x, VString y -> String.compare x y
  | VDate x, VDate y -> Int.compare x y
  | VOid x, VOid y -> Int.compare x y
  | VTuple xs, VTuple ys -> compare_fields xs ys
  | VSet xs, VSet ys -> compare_lists xs ys
  | _ -> Int.compare (rank a) (rank b)

and compare_fields xs ys =
  match xs, ys with
  | [], [] -> 0
  | [], _ :: _ -> -1
  | _ :: _, [] -> 1
  | (n1, v1) :: xs', (n2, v2) :: ys' ->
    let c = String.compare n1 n2 in
    if c <> 0 then c
    else
      let c = compare v1 v2 in
      if c <> 0 then c else compare_fields xs' ys'

and compare_lists xs ys =
  match xs, ys with
  | [], [] -> 0
  | [], _ :: _ -> -1
  | _ :: _, [] -> 1
  | x :: xs', y :: ys' ->
    let c = compare x y in
    if c <> 0 then c else compare_lists xs' ys'

let equal a b = compare a b = 0

(* Structural hashing.

   [hash] is a full-depth hash consistent with [equal] (unlike
   [Stdlib.Hashtbl.hash], whose traversal limits make rows with long common
   prefixes collide).  Because deep hashing of set-valued attributes is the
   expensive part and rows flowing through the physical engine share their
   set values physically, hashes of [VSet] nodes are memoized, keyed on
   physical identity: re-hashing a shared set is a bounded-depth slot
   lookup instead of a full traversal.

   The memo is a fixed-size direct-mapped cache (slot chosen by the
   bounded-depth [Stdlib.Hashtbl.hash]; a colliding insert overwrites).
   An ephemeron table is the tempting alternative, but it degrades
   catastrophically under server-style workloads: each prepared-query
   execution builds fresh sets structurally identical to the previous
   execution's, so every generation lands in the *same* ephemeron buckets
   (bucket choice is structural, entry identity is physical), the entries
   are promoted to the major heap by the ephemeron store and only swept at
   rare resize-triggered cleans, and every lookup walks the whole
   accumulated chain — per-execution cost grows linearly with the number
   of executions served.  The direct-mapped cache is O(1) regardless of
   history: a stream of fresh sets just keeps overwriting slots, while the
   intended hit case (the same physical set hashed again moments later,
   e.g. as a hash-join key) still hits its slot.  A slot pins its set
   until overwritten; with a fixed slot count that retention is bounded.

   The cache is *domain-local* ([Domain.DLS]): the engine's parallel
   operators hash values from pool domains, and a single global cache
   would be a data race the moment two domains touch it.  Each domain
   memoizes independently — the hash function is pure, so the caches can
   only ever disagree about what is cached, never about a hash. *)

let hash_combine acc h = (acc * 31) + h

(* 4096 slots; each holds (set, its full-depth hash). *)
let hash_cache_bits = 12
let hash_cache_size = 1 lsl hash_cache_bits

let hash_cache_key : (t * int) option array Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Array.make hash_cache_size None)

let rec hash v =
  match v with
  | VSet _ ->
    let cache = Domain.DLS.get hash_cache_key in
    let slot = Stdlib.Hashtbl.hash v land (hash_cache_size - 1) in
    (match cache.(slot) with
     | Some (v', h) when v' == v -> h
     | _ ->
       let h = hash_node v in
       cache.(slot) <- Some (v, h);
       h)
  | _ -> hash_node v

and hash_node = function
  | VNull -> 17
  | VBool b -> if b then 19 else 23
  | VInt n -> hash_combine 29 n
  | VFloat f ->
    (* All NaNs compare equal under [Float.compare], so they must hash
       alike regardless of payload bits. *)
    hash_combine 31 (if Float.is_nan f then 0 else Stdlib.Hashtbl.hash f)
  | VString s -> hash_combine 37 (Stdlib.Hashtbl.hash s)
  | VDate d -> hash_combine 41 d
  | VOid n -> hash_combine 43 n
  | VTuple fs ->
    List.fold_left
      (fun acc (n, x) ->
        hash_combine (hash_combine acc (Stdlib.Hashtbl.hash n)) (hash x))
      47 fs
  | VSet xs -> List.fold_left (fun acc x -> hash_combine acc (hash x)) 53 xs

(* Smart constructors *)

let tuple fields =
  let sorted = List.sort (fun (a, _) (b, _) -> String.compare a b) fields in
  let rec check = function
    | (a, _) :: ((b, _) :: _ as rest) ->
      if String.equal a b then type_error "duplicate tuple field %s" a else check rest
    | _ -> ()
  in
  check sorted;
  VTuple sorted

let set elements =
  let sorted = List.sort_uniq compare elements in
  VSet sorted

let empty_set = VSet []

let bool b = VBool b
let int n = VInt n
let float f = VFloat f
let string s = VString s
let date d = VDate d
let oid n = VOid n

(* Accessors *)

let as_bool = function
  | VBool b -> b
  | v -> type_error "expected bool, got rank %d" (rank v)

let as_int = function
  | VInt n -> n
  | v -> type_error "expected int, got rank %d" (rank v)

let as_set = function
  | VSet xs -> xs
  | v -> type_error "expected set, got rank %d" (rank v)

let as_tuple = function
  | VTuple fs -> fs
  | v -> type_error "expected tuple, got rank %d" (rank v)

let as_oid = function
  | VOid n -> n
  | v -> type_error "expected oid, got rank %d" (rank v)

let is_null = function VNull -> true | _ -> false

(* Attribute names are compared with [==] first — a plan's names are
   usually the very strings its rows were built with — then with
   [String.equal]; never with the polymorphic [compare] of the stdlib's
   association-list functions. *)
let same_name (a : string) b = a == b || String.equal a b

(* The value paired with name [a], or [Not_found]: for lookups where a
   miss is an error. *)
let rec find_name a = function
  | [] -> raise Not_found
  | (n, x) :: rest -> if same_name n a then x else find_name a rest

(* The value paired with name [a], or [default]: for lookups that
   usually miss. *)
let rec find_name_or a default = function
  | [] -> default
  | (n, x) :: rest -> if same_name n a then x else find_name_or a default rest

let rec has_name a = function
  | [] -> false
  | (n, _) :: rest -> same_name n a || has_name a rest

let rec mem_name a = function
  | [] -> false
  | n :: rest -> same_name n a || mem_name a rest

(* [field v a] is the paper's tuple subscription for a single attribute. *)
let field v a =
  match v with
  | VTuple fs ->
    (match find_name a fs with
     | x -> x
     | exception Not_found -> type_error "tuple has no field %s" a)
  | _ -> type_error "field %s selected from non-tuple" a

let field_opt v a =
  match v with
  | VTuple fs -> (match find_name a fs with x -> Some x | exception Not_found -> None)
  | _ -> None

let has_field v a =
  match v with
  | VTuple fs -> has_name a fs
  | _ -> false

let field_names v =
  match v with
  | VTuple fs -> List.map fst fs
  | _ -> type_error "field_names of non-tuple"

(* Tuple subscription e[a1,...,an] (semantics item 2). *)
let project v attrs =
  let fs = as_tuple v in
  let picked =
    List.map
      (fun a ->
        match find_name a fs with
        | x -> (a, x)
        | exception Not_found -> type_error "projection: missing field %s" a)
      attrs
  in
  tuple picked

(* Trusted variant of [tuple] for the engine's batch fast paths: the caller
   guarantees the fields are already sorted by name and duplicate-free, so
   no per-row sort or duplicate check runs.  Violating the invariant breaks
   canonical equality — only construct from inputs whose order was
   established once per operator (e.g. a compiled row-maker). *)
let of_sorted_fields fields = VTuple fields

(* [project] for attribute lists already sorted and duplicate-free: a single
   merge walk over the (sorted) tuple fields, no per-row name scans
   and no re-sort in [tuple].  The missing-field error reports the first
   missing attribute in sorted order (callers that must reproduce
   [project]'s source-order message fall back to it on failure). *)
let project_sorted v attrs =
  let fs = as_tuple v in
  let rec go attrs fs =
    match attrs, fs with
    | [], _ -> []
    | a :: _, [] -> type_error "projection: missing field %s" a
    | a :: attrs', (n, x) :: fs' ->
      let c = String.compare n a in
      if c < 0 then go attrs fs'
      else if c = 0 then (n, x) :: go attrs' fs'
      else type_error "projection: missing field %s" a
  in
  VTuple (go attrs fs)

(* Tuple subscription dropping attributes instead of keeping them. *)
let project_away v attrs =
  let fs = as_tuple v in
  tuple (List.filter (fun (a, _) -> not (mem_name a attrs)) fs)

(* Tuple concatenation, the paper's o operator.  Fields must be disjoint. *)
let concat a b =
  let fa = as_tuple a and fb = as_tuple b in
  List.iter
    (fun (n, _) ->
      if has_name n fa then type_error "tuple concat: duplicate field %s" n)
    fb;
  tuple (fa @ fb)

(* The paper's except operator (semantics item 3): updates existing fields
   and/or extends the tuple with new ones. *)
let except v updates =
  let fs = as_tuple v in
  let updated = List.map (fun (n, old) -> (n, find_name_or n old updates)) fs in
  let added = List.filter (fun (n, _) -> not (has_name n fs)) updates in
  tuple (updated @ added)

(* The paper's rename on one tuple: each field named in [pairs]
   (old, new) takes its new name, and the fields are re-sorted. *)
let rename pairs v =
  tuple
    (List.map (fun (n, x) -> (find_name_or n n pairs, x)) (as_tuple v))

(* Set operations; operands are canonical so merge-style code would work,
   but sizes here do not warrant it. *)
let union a b = set (as_set a @ as_set b)

let inter a b =
  let ys = as_set b in
  set (List.filter (fun x -> List.exists (equal x) ys) (as_set a))

let diff a b =
  let ys = as_set b in
  set (List.filter (fun x -> not (List.exists (equal x) ys)) (as_set a))

let mem x s = List.exists (equal x) (as_set s)

let subset_eq a b =
  let ys = as_set b in
  List.for_all (fun x -> List.exists (equal x) ys) (as_set a)

let subset a b = subset_eq a b && not (equal a b)

let set_size s = List.length (as_set s)

(* Multiple union: the paper's flatten (semantics item 1). *)
let flatten s = set (List.concat_map as_set (as_set s))

(* Pretty-printing in the paper's notation: tuples as (a = v, ...), sets as
   {v1, v2, ...}. *)
let rec pp ppf = function
  | VNull -> Fmt.string ppf "NULL"
  | VBool b -> Fmt.bool ppf b
  | VInt n -> Fmt.int ppf n
  | VFloat f -> Fmt.float ppf f
  | VString s -> Fmt.pf ppf "%S" s
  | VDate d -> Fmt.pf ppf "d%d" d
  | VOid n -> Fmt.pf ppf "#%d" n
  | VTuple fs ->
    Fmt.pf ppf "(@[%a@])" (Fmt.list ~sep:Fmt.comma pp_field) fs
  | VSet xs -> Fmt.pf ppf "{@[%a@]}" (Fmt.list ~sep:Fmt.comma pp) xs

and pp_field ppf (n, v) = Fmt.pf ppf "%s = %a" n pp v

let show v = Fmt.str "%a" pp v
