(* A simple cost model over physical plans: cardinality estimation plus
   per-operator cost formulas.  It exists to make algorithm choice
   principled rather than syntactic — in particular the build-side choice
   for hash joins, which the paper contrasts with PNHL ("in relational hash
   join usually the smaller operand is chosen as build table").

   Estimates use exact base-table cardinalities from the catalog and
   textbook selectivity heuristics elsewhere; they are deliberately crude
   (no histograms) but monotone in the input sizes, which is all the
   planner's comparisons need. *)

open Njq_adl

(* Selectivity of a predicate, by syntactic shape. *)
let rec selectivity (pred : Expr.t) : float =
  match pred with
  | Expr.Const (Value.VBool true) -> 1.0
  | Expr.Const (Value.VBool false) -> 0.0
  | Expr.Cmp (Expr.Eq, _, _) -> 0.1
  | Expr.Cmp ((Expr.Neq), _, _) -> 0.9
  | Expr.Cmp ((Expr.Lt | Expr.Le | Expr.Gt | Expr.Ge), _, _) -> 0.33
  | Expr.SetCmp ((Expr.Mem | Expr.Ni), _, _) -> 0.25
  | Expr.SetCmp _ -> 0.5
  | Expr.And (a, b) -> selectivity a *. selectivity b
  | Expr.Or (a, b) ->
    let sa = selectivity a and sb = selectivity b in
    Float.min 1.0 (sa +. sb -. (sa *. sb))
  | Expr.Not a -> 1.0 -. selectivity a
  | Expr.Quant (Expr.Exists, _, _, _) -> 0.4
  | Expr.Quant (Expr.Forall, _, _, _) -> 0.3
  | _ -> 0.5

(* Average cardinality of a set-valued attribute, assumed when it cannot be
   known statically (matches the workload generator's default fanout). *)
let assumed_fanout = 4.0

(* Reverse-map an attribute through a rename: [Some pre] when [attr] is
   the post-rename name of [pre], [None] when [attr] was renamed away. *)
let rev_rename pairs attr =
  match List.find_opt (fun (_, b) -> String.equal b attr) pairs with
  | Some (a, _) -> Some a
  | None ->
    if List.exists (fun (a, _) -> String.equal a attr) pairs then None
    else Some attr

(* Resolve the (base table, attribute) provenance of an attribute of
   [input]'s rows, looking through filters, projections, renames and join
   concatenation.  Join operands carry disjoint attribute names in planner
   output, so through an inner join the attribute belongs to whichever
   side defines it; semijoin/antijoin/nestjoin emit (extended) left rows
   only.  This is what lets NDV and min/max statistics price predicates
   and join keys deep inside a tree — the subset-cardinality estimation
   the join-order enumerator ({!Joinorder}) relies on. *)
let rec column_of_attr (cat : Catalog.t) (input : Plan.t) attr :
    (string * string) option =
  match input with
  | Plan.Scan table ->
    (match Catalog.find_opt cat table with
     | Some t ->
       (match t.Catalog.row_type with
        | Vtype.TTuple fields when List.mem_assoc attr fields ->
          Some (table, attr)
        | _ -> None)
     | None -> None)
  | Plan.Filter { input; _ } -> column_of_attr cat input attr
  | Plan.ProjectOp (attrs, input) ->
    if List.mem attr attrs then column_of_attr cat input attr else None
  | Plan.RenameOp (pairs, input) ->
    Option.bind (rev_rename pairs attr) (column_of_attr cat input)
  | Plan.IndexScan { table; rename; _ } ->
    Option.bind (rev_rename rename attr) (fun a ->
        column_of_attr cat (Plan.Scan table) a)
  | Plan.JoinOp { kind = Expr.Inner; left; right; _ } ->
    (match column_of_attr cat left attr with
     | Some c -> Some c
     | None -> column_of_attr cat right attr)
  | Plan.JoinOp { kind = Expr.Semi | Expr.Anti; left; _ } ->
    column_of_attr cat left attr
  | Plan.NestjoinOp { left; attr = produced; _ } ->
    if String.equal attr produced then None else column_of_attr cat left attr
  | _ -> None

(* Resolve a (table, attribute) pair for a key expression of the shape
   [var.attr], to consult statistics. *)
let scan_column (cat : Catalog.t) (input : Plan.t) var key =
  match key with
  | Expr.Field (Expr.Var v, attr) when String.equal v var ->
    column_of_attr cat input attr
  | _ -> None

let const_int = function
  | Expr.Const (Value.VInt n | Value.VDate n | Value.VOid n) -> Some n
  | _ -> None

(* Fraction of a column's value range covered by optional [lo]/[hi]
   bounds, interpolated from the column's min/max statistics; [None] when
   the stats cannot answer (unknown or degenerate range). *)
let range_fraction (cs : Stats.column_stats) ~(lo : int option)
    ~(hi : int option) : float option =
  match cs with
  | { Stats.lo = Some clo; hi = Some chi; _ } when chi > clo ->
    let clo = float_of_int clo and chi = float_of_int chi in
    let lo_b =
      match lo with Some v -> Float.max clo (float_of_int v) | None -> clo
    in
    let hi_b =
      match hi with Some v -> Float.min chi (float_of_int v) | None -> chi
    in
    Some (Float.max 0.0 (Float.min 1.0 ((hi_b -. lo_b) /. (chi -. clo))))
  | _ -> None

(* Selectivity of one range conjunct [x.a < c] (either orientation, any of
   the four inequalities) interpolated from min/max column stats; [None]
   when the conjunct is not that shape or the stats cannot answer. *)
let range_conj_fraction st cat input var conj : float option =
  let bound key cexpr ~upper =
    match const_int cexpr, scan_column cat input var key with
    | Some v, Some (table, attr) ->
      Option.bind (Stats.column st ~table ~attr) (fun cs ->
          if upper then range_fraction cs ~lo:None ~hi:(Some v)
          else range_fraction cs ~lo:(Some v) ~hi:None)
    | _ -> None
  in
  match conj with
  | Expr.Cmp ((Expr.Lt | Expr.Le), key, (Expr.Const _ as c)) ->
    bound key c ~upper:true
  | Expr.Cmp ((Expr.Gt | Expr.Ge), key, (Expr.Const _ as c)) ->
    bound key c ~upper:false
  | Expr.Cmp ((Expr.Lt | Expr.Le), (Expr.Const _ as c), key) ->
    bound key c ~upper:false
  | Expr.Cmp ((Expr.Gt | Expr.Ge), (Expr.Const _ as c), key) ->
    bound key c ~upper:true
  | _ -> None

(* Rows an index probe retrieves before the residual filter.  Point
   lookups multiply 1/NDV per indexed attribute, whatever the key (a
   constant or a prepared-query parameter); range lookups interpolate
   constant integer bounds against the column's stats range.  Fixed
   fallbacks (0.1 per equality, 0.33 per range) mirror [selectivity]. *)
let index_matches ?stats (cat : Catalog.t) ~table ~index
    (lookup : Plan.index_lookup) (card : float) : float =
  match Catalog.find_index cat index with
  | None -> card
  | Some idx ->
    (match lookup with
     | Plan.LPoint _ ->
       let sel =
         List.fold_left
           (fun acc attr ->
             acc
             *. (match Option.bind stats (fun st ->
                     Stats.eq_selectivity st ~table ~attr)
                 with
                | Some s -> s
                | None -> 0.1))
           1.0 (Catalog.index_attrs idx)
       in
       Float.max 1.0 (sel *. card)
     | Plan.LRange { lo; hi } ->
       let attr = List.hd (Catalog.index_attrs idx) in
       (* A bound the stats cannot read (a parameter, a non-integer) is
          not "unbounded": the whole lookup falls back to 0.33. *)
       let bound = function
         | None -> Some None
         | Some (e, _) -> Option.map Option.some (const_int e)
       in
       let frac =
         match stats, bound lo, bound hi with
         | Some st, Some lo, Some hi ->
           Option.bind (Stats.column st ~table ~attr) (fun cs ->
               range_fraction cs ~lo ~hi)
         | _ -> None
       in
       let frac = Option.value frac ~default:0.33 in
       Float.max 1.0 (frac *. card))

(* NDV-based key factor for one equi-join: the fraction of the cross
   product surviving the first key pair.  With statistics and resolvable
   key provenance this is the containment-assumption estimate
   1/max(NDV_left, NDV_right) over real per-epoch distinct counts
   ({!Stats.join_selectivity} through the rename-aware {!column_of_attr}
   walk); the fixed 1/max(|L|, |R|) distinct-count heuristic remains only
   as the fallback when provenance or stats are missing.  With no keys,
   the residual's syntactic selectivity. *)
let equi_key_factor ?stats cat ~xvar ~yvar ~keys ~residual ~left ~right l r =
  match keys with
  | [] -> selectivity residual
  | (kx, ky) :: _ ->
    (match stats with
     | Some st ->
       (match scan_column cat left xvar kx, scan_column cat right yvar ky with
        | Some (lt, la), Some (rt, ra) ->
          (match
             Stats.join_selectivity st ~left_table:lt ~left_attr:la
               ~right_table:rt ~right_attr:ra
           with
           | Some s -> s
           | None -> 1.0 /. Float.max l r)
        | _ -> 1.0 /. Float.max l r)
     | None -> 1.0 /. Float.max l r)

(* Rows in a base extent (the catalog keeps the count beside the rows);
   100 for a table the catalog does not know. *)
let table_card (cat : Catalog.t) table =
  match Catalog.find_opt cat table with
  | Some t -> float_of_int t.Catalog.card
  | None -> 100.0

(* Estimated number of output rows of a plan.  With [stats], equality
   selectivities over direct scans use real NDV counts. *)
let rec rows_out ?stats (cat : Catalog.t) (p : Plan.t) : float =
  let rows_out ?stats:s cat p =
    rows_out ?stats:(match s with Some _ -> s | None -> stats) cat p
  in
  match p with
  | Plan.Scan name -> table_card cat name
  | Plan.Filter { var; pred; input; _ } ->
    let base_sel = selectivity pred in
    let sel =
      match stats with
      | None -> base_sel
      | Some st ->
        (* Refine conjuncts of the shapes x.a = const or x.a = ?i (NDV)
           and x.a < const (min/max interpolation) over resolvable
           columns. *)
        let refined =
          List.fold_left
            (fun acc conj ->
              match conj with
              | Expr.Cmp (Expr.Eq, key, (Expr.Const _ | Expr.Param _))
              | Expr.Cmp (Expr.Eq, (Expr.Const _ | Expr.Param _), key) ->
                (match scan_column cat input var key with
                 | Some (table, attr) ->
                   (match Stats.eq_selectivity st ~table ~attr with
                    | Some s -> acc *. s
                    | None -> acc *. selectivity conj)
                 | None -> acc *. selectivity conj)
              | Expr.Cmp ((Expr.Lt | Expr.Le | Expr.Gt | Expr.Ge), _, _) ->
                (match range_conj_fraction st cat input var conj with
                 | Some f -> acc *. f
                 | None -> acc *. selectivity conj)
              | c -> acc *. selectivity c)
            1.0 (Expr.conjuncts pred)
        in
        refined
    in
    sel *. rows_out cat input
  | Plan.IndexScan { table; index; lookup; residual; _ } ->
    let card = table_card cat table in
    index_matches ?stats cat ~table ~index lookup card *. selectivity residual
  | Plan.IndexJoin { kind; table; index; residual; left; _ } ->
    let l = rows_out cat left in
    (match kind with
     | Expr.Inner | Expr.LeftOuter _ ->
       let card = table_card cat table in
       let per_probe =
         index_matches ?stats cat ~table ~index (Plan.LPoint []) card
       in
       Float.max 1.0 (l *. per_probe *. selectivity residual)
     | Expr.Semi -> 0.5 *. l
     | Expr.Anti -> 0.5 *. l)
  | Plan.MapOp { input; _ } | Plan.ProjectOp (_, input) -> rows_out cat input
  | Plan.FlattenOp input -> assumed_fanout *. rows_out cat input
  | Plan.UnionOp (a, b) -> rows_out cat a +. rows_out cat b
  | Plan.InterOp (a, b) -> Float.min (rows_out cat a) (rows_out cat b)
  | Plan.DiffOp (a, _) -> rows_out cat a
  | Plan.ProductOp (a, b) -> rows_out cat a *. rows_out cat b
  | Plan.JoinOp { kind; xvar; yvar; keys; residual; left; right; _ } ->
    let l = rows_out cat left and r = rows_out cat right in
    (match kind with
     | Expr.Inner | Expr.LeftOuter _ ->
       let key_factor =
         equi_key_factor ?stats cat ~xvar ~yvar ~keys ~residual ~left ~right l
           r
       in
       Float.max 1.0 (l *. r *. key_factor)
     | Expr.Semi -> 0.5 *. l
     | Expr.Anti -> 0.5 *. l)
  | Plan.NestjoinOp { left; _ } -> rows_out cat left
  | Plan.MemberJoin { kind; left; right; _ } ->
    (match kind with
     | Plan.MSemi | Plan.MAnti -> 0.5 *. rows_out cat left
     | Plan.MInner ->
       let r =
         match right with
         | Plan.Build r -> rows_out cat r
         | Plan.Oid_index table -> table_card cat table
       in
       assumed_fanout *. rows_out cat left +. r
     | Plan.MNest _ -> rows_out cat left)
  | Plan.RenameOp (_, input) -> rows_out cat input
  | Plan.UnnestOp (_, input) -> assumed_fanout *. rows_out cat input
  | Plan.NestOp { input; _ } -> 0.5 *. rows_out cat input
  | Plan.DivideOp (a, _) -> Float.max 1.0 (0.1 *. rows_out cat a)
  | Plan.Pnhl { left; _ } -> rows_out cat left
  | Plan.EvalOp _ -> 1.0
  | Plan.Materialized rows -> float_of_int (List.length rows)

(* Cost of one join by algorithm and operand cardinalities.  The executor
   builds its hash table on the RIGHT operand; building (insert +
   allocation) is weighted heavier than probing, which is what makes
   choosing the smaller operand as build table pay off — the build-side
   consideration the paper raises when contrasting PNHL with relational
   hash join.  Partitioning adds one pass over both inputs; the partition
   joins sum to one hash join of the full inputs. *)
let rec join_algo_cost algo l r =
  match algo with
  | Plan.Nested_loop -> l *. r
  | Plan.Hash -> l +. (2.0 *. r)
  | Plan.Sort_merge ->
    let nlogn x = x *. Float.max 1.0 (Float.log2 (Float.max 2.0 x)) in
    nlogn l +. nlogn r
  | Plan.Partitioned _ -> l +. r +. join_algo_cost Plan.Hash l r

(* Spill I/O charge.  A partitioned join whose build side is estimated
   past its budget writes both inputs to temp files and reads them back
   once, [spill_io] work units per row for the round trip.  A resident
   hash join is charged the same against the engine budget, because the
   planner partitions it when the budget binds: charging this in the
   model is what makes the join-order enumerator prefer orders whose
   build sides stay resident.  Sort-merge and nested loops build no
   table, so they never spill. *)
let spill_io = 2.0

let spill_charge ~budget ~build ~probe =
  if build > float_of_int budget then spill_io *. (build +. probe) else 0.0

(* Spill charge of a join or nestjoin by algorithm; a resident hash
   nestjoin is never partitioned by the budget, so it is not charged. *)
let join_spill ~nest algo l r =
  match algo with
  | Plan.Hash when nest -> 0.0
  | Plan.Hash -> spill_charge ~budget:!Memory.budget ~build:r ~probe:l
  | Plan.Partitioned { mem_budget; _ } ->
    spill_charge ~budget:mem_budget ~build:r ~probe:l
  | Plan.Sort_merge | Plan.Nested_loop -> 0.0

(* Estimated cost in abstract work units (comparable to the work-counter
   totals of [Njq_obs.Metrics]). *)
let rec cost ?stats (cat : Catalog.t) (p : Plan.t) : float =
  let cost ?stats:s cat p =
    cost ?stats:(match s with Some _ -> s | None -> stats) cat p
  in
  let rows_out cat p = rows_out ?stats cat p in
  let out = rows_out cat p in
  match p with
  | Plan.Scan _ -> out
  | Plan.IndexScan { table; index; lookup; _ } ->
    (* One probe (constant for hash, log for sorted) plus a weighted fetch
       and residual check per retrieved row.  The 3.0/row weight is what
       makes a full scan win back once the lookup stops being selective
       (scan+filter costs ~2 units/row over the whole extent). *)
    let card = table_card cat table in
    let matched = index_matches ?stats cat ~table ~index lookup card in
    let probe =
      match Catalog.find_index cat index with
      | Some idx when Catalog.index_kind idx = Catalog.Sorted_index ->
        Float.max 1.0 (Float.log2 (Float.max 2.0 card))
      | _ -> 1.0
    in
    probe +. (3.0 *. matched)
  | Plan.IndexJoin { table; index; left; _ } ->
    (* Per outer row: one probe plus the weighted per-match fetch.  No
       build pass and no scan of the inner extent — that is the saving
       over a hash join when the outer side is small or selective. *)
    let l = rows_out cat left in
    let card = table_card cat table in
    let per_probe = index_matches ?stats cat ~table ~index (Plan.LPoint []) card in
    cost cat left +. (l *. (1.0 +. (3.0 *. per_probe))) +. out
  | Plan.Filter { input; _ } -> cost cat input +. rows_out cat input
  | Plan.MapOp { input; _ } | Plan.ProjectOp (_, input) ->
    cost cat input +. rows_out cat input
  | Plan.FlattenOp input -> cost cat input +. out
  | Plan.UnionOp (a, b) | Plan.InterOp (a, b) | Plan.DiffOp (a, b) ->
    cost cat a +. cost cat b +. rows_out cat a +. rows_out cat b
  | Plan.ProductOp (a, b) -> cost cat a +. cost cat b +. out
  | Plan.JoinOp { algo; left; right; _ }
  | Plan.NestjoinOp { algo; left; right; _ } ->
    let l = rows_out cat left and r = rows_out cat right in
    let nest = match p with Plan.NestjoinOp _ -> true | _ -> false in
    cost cat left +. cost cat right +. join_algo_cost algo l r
    +. join_spill ~nest algo l r +. out
  | Plan.MemberJoin { left; right = Plan.Build right; _ } ->
    cost cat left +. cost cat right +. rows_out cat right
    +. (assumed_fanout *. rows_out cat left)
  | Plan.MemberJoin { left; right = Plan.Oid_index _; _ } ->
    (* Pointer-based: the oid index is the build table, so only the
       per-element probes are charged. *)
    cost cat left +. (assumed_fanout *. rows_out cat left)
  | Plan.RenameOp (_, input) -> cost cat input +. out
  | Plan.UnnestOp (_, input) -> cost cat input +. out
  | Plan.NestOp { input; _ } -> cost cat input +. rows_out cat input
  | Plan.DivideOp (a, b) ->
    cost cat a +. cost cat b
    +. (rows_out cat a *. Float.max 1.0 (rows_out cat b) *. 0.1)
  | Plan.Pnhl { left; right; mem_budget; _ } ->
    let l = rows_out cat left and r = rows_out cat right in
    let partitions = Float.max 1.0 (r /. float_of_int (max 1 mem_budget)) in
    let spill = if partitions > 1.0 then spill_io *. r else 0.0 in
    cost cat left +. cost cat right +. r
    +. (partitions *. l *. assumed_fanout)
    +. spill
  | Plan.EvalOp _ -> 1000.0
  | Plan.Materialized rows -> float_of_int (List.length rows)
