(* Physical query plans.

   A plan mirrors the top-level iterator structure of an ADL expression but
   fixes an algorithm for each join-family operator: nested loop, hash (on
   extracted equi-join keys), or sort-merge.  Parameter expressions inside
   operators (predicates, map bodies) stay ADL expressions, which the
   executor compiles once per operator into closures ([Compile]); what the
   engine changes is how the *iteration* is organized — which is exactly
   the paper's point: the same logical join admits many set-oriented
   implementations, while a nested subquery forces nested loops.

   Section 6.2's two ways of joining a set of oids with an extent are a
   member join's two right sides: [Oid_index] follows the pointers
   (assembly), [Build] hashes the extent (value-based).  [Pnhl], the
   Partitioned Nested-Hashed-Loops algorithm of [DeLa92], joins a
   set-valued attribute with a base table under a memory budget. *)

open Njq_adl

(* [Partitioned] is the hash algorithm run as a policy: both inputs are
   hash-partitioned on the first key into max(partitions,
   ceil(|build| / mem_budget)) partitions whose pairs run as pool tasks;
   past the budget the partitions are spill files.  [partitions] is fixed
   here, in the plan, so results and work counters do not depend on the
   pool size; [mem_budget = max_int] never spills. *)
type join_algo =
  | Nested_loop
  | Hash
  | Sort_merge
  | Partitioned of { partitions : int; mem_budget : int }

(* Output discipline of a membership join: keep the left tuple (semi/anti),
   concatenate matching right tuples (inner), or group them under a new
   attribute (nest, with the function parameter applied to each match). *)
type member_kind =
  | MSemi
  | MAnti
  | MInner
  | MNest of { body : Expr.t; attr : string }

(* Equi-join keys extracted from a predicate: pairs (f(x), g(y)) such that
   the conjunct f(x) = g(y) appeared in the predicate. *)
type keys = (Expr.t * Expr.t) list

(* How an [IndexScan] addresses its index: a point lookup supplies one
   closed expression per indexed attribute; a range lookup bounds the
   leading attribute of a sorted index ([(expr, inclusive)] endpoints). *)
type index_lookup =
  | LPoint of Expr.t list
  | LRange of { lo : (Expr.t * bool) option; hi : (Expr.t * bool) option }

type t =
  | Scan of string
  | Filter of { var : string; pred : Expr.t; input : t; morsel : bool }
      (* [morsel]: buffer the input's batches and filter them as pool
         tasks, re-concatenated in order — the same row list. *)
  | IndexScan of {
      table : string;
      index : string; (* catalog index name *)
      var : string;
      lookup : index_lookup;
      residual : Expr.t; (* conjuncts the index cannot answer *)
      rename : (string * string) list; (* applied to fetched rows *)
    }
      (* Access-path replacement for Filter(Scan) — or Filter(Rename(Scan))
         when [rename] is non-empty: fetch only the rows the index says can
         match, rename their attributes, then apply the residual.  Emits
         exactly the replaced subplan's row list (catalog indexes return
         rows in canonical order). *)
  | IndexJoin of {
      kind : Expr.join_kind; (* Inner, Semi or Anti *)
      xvar : string;
      yvar : string;
      table : string; (* inner base table *)
      index : string; (* catalog index over [table] *)
      keys : Expr.t list; (* left-side probe exprs, one per indexed attr *)
      residual : Expr.t; (* join conjuncts beyond the indexed equalities *)
      rename : (string * string) list; (* applied to fetched inner rows *)
      left : t;
    }
      (* Index nested loops: for each left row, probe the inner table's
         index with the evaluated key expressions instead of building a
         hash table over the whole inner extent ([rename] absorbs a
         Rename over the inner scan).  Streams per outer row. *)
  | MapOp of { var : string; body : Expr.t; input : t; morsel : bool }
      (* [morsel]: as for [Filter]. *)
  | ProjectOp of string list * t
  | FlattenOp of t
  | UnionOp of t * t
  | InterOp of t * t
  | DiffOp of t * t
  | ProductOp of t * t
  | JoinOp of {
      algo : join_algo;
      kind : Expr.join_kind;
      xvar : string;
      yvar : string;
      keys : keys;
      residual : Expr.t; (* conjuncts not covered by the keys *)
      left : t;
      right : t;
    }
  | NestjoinOp of {
      algo : join_algo;
      xvar : string;
      yvar : string;
      keys : keys;
      residual : Expr.t;
      body : Expr.t;
      attr : string;
      left : t;
      right : t;
    }
  | MemberJoin of {
      kind : member_kind;
      xvar : string;
      yvar : string;
      xset : Expr.t; (* set-valued expression over the left variable *)
      elem_var : string; (* binder for one element of [xset] *)
      elem_key : Expr.t; (* key of an element, over [elem_var] *)
      ykey : Expr.t; (* key of a right row, over [yvar] *)
      left : t;
      right : member_right;
    }
      (* Hash implementation of membership-style join predicates
         ('exists' z 'in' x.c . key(z) = key(y), or key(y) 'in' x.c): the
         right operand is hashed on its key and each left tuple probes with
         the keys of its set-valued attribute's elements — the probing
         pattern of the PNHL algorithm applied to join operators. *)
  | RenameOp of (string * string) list * t
  | UnnestOp of string * t
  | NestOp of { attrs : string list; into : string; input : t }
  | DivideOp of t * t
  | Pnhl of {
      attr : string; (* set-valued attribute of the left rows *)
      elem_key : Expr.t; (* key of one element, free var "elem" *)
      row_key : Expr.t; (* key of a right row, free var "row" *)
      into : string; (* result attribute receiving the matched rows *)
      mem_budget : int; (* max right rows hashed at once (partitioning) *)
      left : t;
      right : t;
    }
      (* Segments of at most [mem_budget] right rows run as pool tasks;
         past one segment they are spill files.  Built by hand, never
         planned. *)
  | EvalOp of Expr.t (* fallback: reference (nested-loop) evaluation *)
  | Materialized of Value.t list
      (* an already-computed, duplicate-free row list; the serving layer
         splices its parameter table in as one, never the planner *)

(* Right operand of a [MemberJoin]: a plan whose rows are hashed on
   [ykey], or — when the elements are oids into a whole extent keyed on
   "oid" and [ykey] is [y.oid] — that extent reached through the catalog's
   oid index, which already is the table the join would build.  The
   pointer-based form has no right child: each element probes the index
   (Section 6.2's assembly, against PNHL's value-based build). *)
and member_right =
  | Build of t
  | Oid_index of string

let algo_name = function
  | Nested_loop -> "nl"
  | Hash -> "hash"
  | Sort_merge -> "sortmerge"
  | Partitioned { mem_budget; _ } ->
    if mem_budget = max_int then "par" else "grace"

(* The policy values of a partitioned join: the plan's partition count
   unless a budget alone decides it, and the budget when one is set. *)
let pp_policy ppf = function
  | Partitioned { partitions; mem_budget } ->
    if mem_budget = max_int || partitions > 1 then
      Fmt.pf ppf ", %d part." partitions;
    if mem_budget < max_int then Fmt.pf ppf ", mem=%d" mem_budget
  | Nested_loop | Hash | Sort_merge -> ()

let morsel_prefix morsel = if morsel then "par_" else ""

let kind_name = function
  | Expr.Inner -> "join"
  | Expr.Semi -> "semijoin"
  | Expr.Anti -> "antijoin"
  | Expr.LeftOuter _ -> "outerjoin"

let pp_lookup ppf = function
  | LPoint keys ->
    Fmt.pf ppf "=(%a)" (Fmt.list ~sep:Fmt.comma Pretty.pp) keys
  | LRange { lo; hi } ->
    let bound op ppf = function
      | None -> ()
      | Some (e, incl) -> Fmt.pf ppf " %s%s %a" op (if incl then "=" else "") Pretty.pp e
    in
    Fmt.pf ppf "range%a%a" (bound ">") lo (bound "<") hi

let rec pp ppf = function
  | Scan t -> Fmt.pf ppf "scan(%s)" t
  | Filter { var; pred; input; morsel } ->
    Fmt.pf ppf "@[<2>%sfilter[%s: %a](@,%a)@]" (morsel_prefix morsel) var
      Pretty.pp pred pp input
  | IndexScan { table; index; lookup; residual; rename; _ } ->
    Fmt.pf ppf "@[<2>idxscan[%s via %s: %a%s%s]@]" table index pp_lookup lookup
      (if Expr.is_true residual then "" else "+residual")
      (if rename = [] then "" else "+rename")
  | IndexJoin { kind; table; index; keys; residual; rename; left; _ } ->
    Fmt.pf ppf "@[<2>idx_%s[%s via %s, %d keys%s%s](@,%a)@]" (kind_name kind)
      table index (List.length keys)
      (if Expr.is_true residual then "" else "+residual")
      (if rename = [] then "" else "+rename")
      pp left
  | MapOp { var; body; input; morsel } ->
    Fmt.pf ppf "@[<2>%smap[%s: %a](@,%a)@]" (morsel_prefix morsel) var
      Pretty.pp body pp input
  | ProjectOp (attrs, input) ->
    Fmt.pf ppf "@[<2>project[%s](@,%a)@]" (String.concat "," attrs) pp input
  | FlattenOp input -> Fmt.pf ppf "@[<2>flatten(@,%a)@]" pp input
  | UnionOp (a, b) -> Fmt.pf ppf "@[<2>union(@,%a,@ %a)@]" pp a pp b
  | InterOp (a, b) -> Fmt.pf ppf "@[<2>inter(@,%a,@ %a)@]" pp a pp b
  | DiffOp (a, b) -> Fmt.pf ppf "@[<2>diff(@,%a,@ %a)@]" pp a pp b
  | ProductOp (a, b) -> Fmt.pf ppf "@[<2>product(@,%a,@ %a)@]" pp a pp b
  | JoinOp { algo; kind; keys; residual; left; right; _ } ->
    Fmt.pf ppf "@[<2>%s_%s[%d keys%s%a](@,%a,@ %a)@]" (algo_name algo)
      (kind_name kind) (List.length keys)
      (if Expr.is_true residual then "" else "+residual")
      pp_policy algo pp left pp right
  | NestjoinOp { algo; keys; attr; left; right; _ } ->
    Fmt.pf ppf "@[<2>%s_nestjoin[%d keys → %s%a](@,%a,@ %a)@]" (algo_name algo)
      (List.length keys) attr pp_policy algo pp left pp right
  | MemberJoin { kind; xset; left; right; _ } ->
    let kname =
      match kind with
      | MSemi -> "semijoin"
      | MAnti -> "antijoin"
      | MInner -> "join"
      | MNest { attr; _ } -> "nestjoin→" ^ attr
    in
    let pp_right ppf = function
      | Build r -> pp ppf r
      | Oid_index table -> Fmt.pf ppf "oid(%s)" table
    in
    Fmt.pf ppf "@[<2>member_%s[%a](@,%a,@ %a)@]" kname Pretty.pp xset pp left
      pp_right right
  | RenameOp (pairs, input) ->
    Fmt.pf ppf "@[<2>rename[%s](@,%a)@]"
      (String.concat ","
         (List.map (fun (o, n) -> Printf.sprintf "%s->%s" o n) pairs))
      pp input
  | UnnestOp (a, input) -> Fmt.pf ppf "@[<2>unnest[%s](@,%a)@]" a pp input
  | NestOp { attrs; into; input } ->
    Fmt.pf ppf "@[<2>nest[%s→%s](@,%a)@]" (String.concat "," attrs) into pp input
  | DivideOp (a, b) -> Fmt.pf ppf "@[<2>divide(@,%a,@ %a)@]" pp a pp b
  | Pnhl { attr; into; mem_budget; left; right; _ } ->
    Fmt.pf ppf "@[<2>pnhl[%s→%s, mem=%d](@,%a,@ %a)@]" attr into mem_budget pp
      left pp right
  | EvalOp e -> Fmt.pf ppf "@[<2>eval(@,%a)@]" Pretty.pp e
  | Materialized rows -> Fmt.pf ppf "materialized(%d rows)" (List.length rows)

let to_string p = Fmt.str "@[%a@]" pp p

(* Stable identity of a physical plan: the hash of its rendered tree.
   Two queries served by the same plan share a fingerprint, so `njq top`
   can aggregate a query log per plan and `explain --analyze` output
   joins against it. *)
let fingerprint p = Njq_obs.Qlog.hash_hex (to_string p)

(* Short operator label for instrumented reports. *)
let node_label = function
  | Scan t -> "scan " ^ t
  | IndexScan { table; _ } -> "idxscan " ^ table
  | IndexJoin { kind; _ } -> "idx_" ^ kind_name kind
  | Filter { morsel; _ } -> morsel_prefix morsel ^ "filter"
  | MapOp { morsel; _ } -> morsel_prefix morsel ^ "map"
  | ProjectOp _ -> "project"
  | FlattenOp _ -> "flatten"
  | UnionOp _ -> "union"
  | InterOp _ -> "inter"
  | DiffOp _ -> "diff"
  | ProductOp _ -> "product"
  | JoinOp { algo; kind; _ } -> algo_name algo ^ "_" ^ kind_name kind
  | NestjoinOp { algo; _ } -> algo_name algo ^ "_nestjoin"
  | MemberJoin { kind = MSemi; _ } -> "member_semijoin"
  | MemberJoin { kind = MAnti; _ } -> "member_antijoin"
  | MemberJoin { kind = MInner; _ } -> "member_join"
  | MemberJoin { kind = MNest _; _ } -> "member_nestjoin"
  | RenameOp _ -> "rename"
  | UnnestOp (a, _) -> "unnest " ^ a
  | NestOp { into; _ } -> "nest →" ^ into
  | DivideOp _ -> "divide"
  | Pnhl _ -> "pnhl"
  | EvalOp _ -> "eval"
  | Materialized _ -> "materialized"

(* Immediate sub-plans, left to right. *)
let children = function
  | Scan _ | EvalOp _ | Materialized _ | IndexScan _ -> []
  | IndexJoin { left; _ } -> [ left ]
  | Filter { input; _ } | MapOp { input; _ } | ProjectOp (_, input)
  | FlattenOp input | RenameOp (_, input) | UnnestOp (_, input)
  | NestOp { input; _ } -> [ input ]
  | UnionOp (a, b) | InterOp (a, b) | DiffOp (a, b) | ProductOp (a, b)
  | DivideOp (a, b) -> [ a; b ]
  | MemberJoin { left; right = Build right; _ } -> [ left; right ]
  | MemberJoin { left; right = Oid_index _; _ } -> [ left ]
  | JoinOp { left; right; _ } | NestjoinOp { left; right; _ }
  | Pnhl { left; right; _ } ->
    [ left; right ]

(* Structural plan equality.  The type is first-order (expressions and
   values are themselves structural), so [Stdlib.( = )] is the right
   notion; named so call sites read as plan comparison and survive a
   future move to hash-consed nodes. *)
let equal (a : t) (b : t) = Stdlib.( = ) a b

(* Pre-order traversal over every node of the plan tree. *)
let rec iter_nodes f p =
  f p;
  List.iter (iter_nodes f) (children p)

(* ------------------------------------------------------------------ *)
(* Pipeline shape of the batched push executor (see [Exec]).  The two   *)
(* predicates below are the single source of truth for which edges the  *)
(* executor fuses; EXPLAIN renders them and [Exec.push]/[Exec.bpush]    *)
(* consult [streams_output] to decide fusion, so the annotation cannot  *)
(* drift from the execution.                                            *)
(* ------------------------------------------------------------------ *)

(* Does the node stream its output rows, batch by batch, into its
   consumer (true), or is it a pipeline breaker that materializes its
   full result before the consumer sees a row (false)?  Breakers are
   exactly the operators whose semantics need the whole input:
   sort-merge runs, partitioned joins, grouping, division and PNHL. *)
let streams_output = function
  | Scan _ | Filter _ | MapOp _ | ProjectOp _ | FlattenOp _ | UnionOp _
  | InterOp _ | DiffOp _ | ProductOp _ | MemberJoin _ | RenameOp _
  | UnnestOp _ | EvalOp _ | Materialized _ | IndexScan _ | IndexJoin _ ->
    true
  | JoinOp { algo = Nested_loop | Hash; _ }
  | NestjoinOp { algo = Nested_loop | Hash; _ } ->
    true
  | JoinOp { algo = Sort_merge | Partitioned _; _ }
  | NestjoinOp { algo = Sort_merge | Partitioned _; _ }
  | NestOp _ | DivideOp _ | Pnhl _ ->
    false

(* Per child edge (parallel to [children]): [true] when the executor
   consumes that child batch by batch without ever forming its result
   list (a fused edge), [false] when the child's rows are materialized
   first — into a hash build table, a sort buffer, a chunk array or a
   partition buffer. *)
let streamed_inputs = function
  | Scan _ | EvalOp _ | Materialized _ | IndexScan _ -> []
  | Filter { morsel; _ } | MapOp { morsel; _ } -> [ not morsel ]
  | ProjectOp (_, _) | FlattenOp _ | RenameOp (_, _) | UnnestOp (_, _)
  | NestOp _ | IndexJoin _ ->
    [ true ]
  | UnionOp (_, _) -> [ true; true ]
  | InterOp (_, _) | DiffOp (_, _) | ProductOp (_, _) -> [ true; false ]
  | MemberJoin { right = Oid_index _; _ } -> [ true ]
  | JoinOp { algo = Nested_loop | Hash; _ }
  | NestjoinOp { algo = Nested_loop | Hash; _ }
  | MemberJoin { right = Build _; _ } ->
    [ true; false ]
  | JoinOp { algo = Sort_merge | Partitioned _; _ }
  | NestjoinOp { algo = Sort_merge | Partitioned _; _ }
  | DivideOp (_, _) | Pnhl _ ->
    [ false; false ]

(* Pipeline-boundary view of a plan: a header line with the batch size,
   then one node per line, each child edge marked "~>" (fused: column
   batches of up to that many rows flow into the parent's loop) or "=>"
   (materialized: the parent buffers this input before producing output).
   Breaker nodes are suffixed with "[breaker]". *)
let pp_pipelines ppf p =
  Fmt.pf ppf "batched: fused edges carry up to %d rows per batch@." !Batch.size;
  let rec go depth edge p =
    let indent = String.make (2 * depth) ' ' in
    let marker =
      match edge with
      | None -> ""
      | Some true -> "~> "
      | Some false -> "=> "
    in
    Fmt.pf ppf "%s%s%s%s@." indent marker (node_label p)
      (if streams_output p then "" else "  [breaker]");
    List.iter2
      (fun c streamed -> go (depth + 1) (Some streamed) c)
      (children p) (streamed_inputs p)
  in
  go 0 None p

(* Rebuild the whole plan with [f] applied to every embedded ADL
   expression (predicates, map/nestjoin bodies, join keys, index lookups).
   The structure — operators, algorithms, binder names — is untouched, so
   a cached physical plan can be re-targeted by expression substitution
   alone; the serve layer uses this to bind prepared-query parameters
   ([Param i] → [Const v]) into a plan derived once from the template. *)
let rec map_exprs f p =
  let recur = map_exprs f in
  match p with
  | Scan _ | Materialized _ -> p
  | EvalOp e -> EvalOp (f e)
  | Filter fl -> Filter { fl with pred = f fl.pred; input = recur fl.input }
  | IndexScan s ->
    let lookup =
      match s.lookup with
      | LPoint keys -> LPoint (List.map f keys)
      | LRange { lo; hi } ->
        let bound = Option.map (fun (e, incl) -> (f e, incl)) in
        LRange { lo = bound lo; hi = bound hi }
    in
    IndexScan { s with lookup; residual = f s.residual }
  | IndexJoin j ->
    IndexJoin
      { j with keys = List.map f j.keys; residual = f j.residual;
        left = recur j.left }
  | MapOp m -> MapOp { m with body = f m.body; input = recur m.input }
  | ProjectOp (attrs, input) -> ProjectOp (attrs, recur input)
  | FlattenOp input -> FlattenOp (recur input)
  | UnionOp (a, b) -> UnionOp (recur a, recur b)
  | InterOp (a, b) -> InterOp (recur a, recur b)
  | DiffOp (a, b) -> DiffOp (recur a, recur b)
  | ProductOp (a, b) -> ProductOp (recur a, recur b)
  | DivideOp (a, b) -> DivideOp (recur a, recur b)
  | RenameOp (pairs, input) -> RenameOp (pairs, recur input)
  | UnnestOp (a, input) -> UnnestOp (a, recur input)
  | NestOp n -> NestOp { n with input = recur n.input }
  | JoinOp j ->
    JoinOp
      { j with keys = List.map (fun (a, b) -> (f a, f b)) j.keys;
        residual = f j.residual; left = recur j.left; right = recur j.right }
  | NestjoinOp j ->
    NestjoinOp
      { j with keys = List.map (fun (a, b) -> (f a, f b)) j.keys;
        residual = f j.residual; body = f j.body;
        left = recur j.left; right = recur j.right }
  | MemberJoin j ->
    let kind =
      match j.kind with
      | MNest { body; attr } -> MNest { body = f body; attr }
      | (MSemi | MAnti | MInner) as k -> k
    in
    let right =
      match j.right with
      | Build r -> Build (recur r)
      | Oid_index _ as r -> r
    in
    MemberJoin
      { j with kind; xset = f j.xset; elem_key = f j.elem_key;
        ykey = f j.ykey; left = recur j.left; right }
  | Pnhl j ->
    Pnhl
      { j with elem_key = f j.elem_key; row_key = f j.row_key;
        left = recur j.left; right = recur j.right }

(* Rebuild a node with new children (same arity as [children]). *)
let with_children p cs =
  match p, cs with
  | (Scan _ | EvalOp _ | Materialized _ | IndexScan _), [] -> p
  | IndexJoin j, [ c ] -> IndexJoin { j with left = c }
  | Filter f, [ c ] -> Filter { f with input = c }
  | MapOp m, [ c ] -> MapOp { m with input = c }
  | ProjectOp (attrs, _), [ c ] -> ProjectOp (attrs, c)
  | FlattenOp _, [ c ] -> FlattenOp c
  | RenameOp (pairs, _), [ c ] -> RenameOp (pairs, c)
  | UnnestOp (a, _), [ c ] -> UnnestOp (a, c)
  | NestOp n, [ c ] -> NestOp { n with input = c }
  | UnionOp _, [ a; b ] -> UnionOp (a, b)
  | InterOp _, [ a; b ] -> InterOp (a, b)
  | DiffOp _, [ a; b ] -> DiffOp (a, b)
  | ProductOp _, [ a; b ] -> ProductOp (a, b)
  | DivideOp _, [ a; b ] -> DivideOp (a, b)
  | JoinOp j, [ a; b ] -> JoinOp { j with left = a; right = b }
  | NestjoinOp j, [ a; b ] -> NestjoinOp { j with left = a; right = b }
  | MemberJoin ({ right = Build _; _ } as j), [ a; b ] ->
    MemberJoin { j with left = a; right = Build b }
  | MemberJoin ({ right = Oid_index _; _ } as j), [ a ] ->
    MemberJoin { j with left = a }
  | Pnhl j, [ a; b ] -> Pnhl { j with left = a; right = b }
  | _ -> invalid_arg "Plan.with_children: arity mismatch"

(* Replace every [Scan name] node for which [f name] answers with the
   replacement plan; other scans and all structure are untouched.  The
   serve layer uses this to splice an in-memory parameter table
   ([Materialized rows]) into a cached batched plan without registering
   the rows in the catalog — and so without an epoch bump per batch. *)
let rec map_scans f p =
  match p with
  | Scan name -> (match f name with Some q -> q | None -> p)
  | _ -> with_children p (List.map (map_scans f) (children p))
