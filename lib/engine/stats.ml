(* Table statistics: per-attribute number of distinct values (NDV) and, for
   integer-like attributes, value bounds, computed by a full scan of each
   extent.  The cost model uses them to estimate equality selectivities
   instead of falling back to fixed constants. *)

open Njq_adl

type column_stats = {
  ndv : int; (* number of distinct values *)
  lo : int option; (* min, for int/date/oid-valued attributes *)
  hi : int option;
}

(* One extent's statistics, tagged with the [Catalog.table_epoch] they
   were computed at so a later [cached] call can keep them if the table
   has not changed since. *)
type table_stats = {
  analyzed_at : int;
  card : int;
  columns : (string * column_stats) list; (* attribute -> stats *)
}

type t = (string, table_stats) Hashtbl.t (* table name -> stats *)

module VTbl = Hashtbl.Make (struct
  type t = Value.t

  let equal = Value.equal
  let hash = Value.hash
end)

let int_of_value = function
  | Value.VInt n | Value.VDate n | Value.VOid n -> Some n
  | _ -> None

(* Per-column accumulator for the single-pass scan: a distinct-value set
   plus running integer bounds. *)
type accum = {
  attr : string;
  seen : unit VTbl.t;
  mutable a_lo : int option;
  mutable a_hi : int option;
}

let analyze_table cat name =
  let analyzed_at = Catalog.table_epoch cat name in
  match Catalog.rows cat name with
  | [] -> { analyzed_at; card = 0; columns = [] }
  | first :: _ as rows ->
    let accums =
      Array.of_list
        (List.map
           (fun attr ->
             { attr; seen = VTbl.create 64; a_lo = None; a_hi = None })
           (Value.field_names first))
    in
    (* One pass over the rows updates every column's accumulator (the old
       shape re-walked the whole table once per attribute, materializing a
       value list each time). *)
    let card = ref 0 in
    List.iter
      (fun row ->
        incr card;
        Array.iter
          (fun acc ->
            let v = Value.field row acc.attr in
            if not (VTbl.mem acc.seen v) then VTbl.add acc.seen v ();
            match int_of_value v with
            | None -> ()
            | Some n ->
              (match acc.a_lo with
               | Some lo when lo <= n -> ()
               | _ -> acc.a_lo <- Some n);
              (match acc.a_hi with
               | Some hi when hi >= n -> ()
               | _ -> acc.a_hi <- Some n))
          accums)
      rows;
    {
      analyzed_at;
      card = !card;
      columns =
        Array.to_list
          (Array.map
             (fun acc ->
               ( acc.attr,
                 { ndv = VTbl.length acc.seen; lo = acc.a_lo; hi = acc.a_hi } ))
             accums);
    }

(* Collect statistics for every extent, scanning only the tables [reuse]
   has no current entry for (none, for a full analysis).  The same
   maintenance pass force-builds any declared-but-unbuilt indexes over
   every extent, so a fresh catalog pays one combined warm-up instead of
   two. *)
let collect ?(reuse : t option) (cat : Catalog.t) : t =
  let t = Hashtbl.create 16 in
  List.iter
    (fun name ->
      let fresh =
        match Option.bind reuse (fun old -> Hashtbl.find_opt old name) with
        | Some ts when ts.analyzed_at = Catalog.table_epoch cat name -> ts
        | _ -> analyze_table cat name
      in
      Hashtbl.replace t name fresh;
      Catalog.build_indexes cat name)
    (Catalog.table_names cat);
  t

let analyze cat = collect cat

(* Statistics cache, one slot per catalog (keyed by Catalog.id), valid for
   a single catalog epoch.  After any table/index/data change the next
   call re-analyzes only the tables whose own change epoch moved
   ([Catalog.table_epoch]): registering a serve parameter table does not
   rescan the base extents.  [~refresh:true] rescans everything. *)
let cache : (int, int * t) Hashtbl.t = Hashtbl.create 8

let cached ?(refresh = false) (cat : Catalog.t) : t =
  let key = Catalog.id cat in
  let ep = Catalog.epoch cat in
  match Hashtbl.find_opt cache key with
  | Some (cached_ep, stats) when cached_ep = ep && not refresh -> stats
  | prev ->
    let reuse = if refresh then None else Option.map snd prev in
    let stats = collect ?reuse cat in
    Hashtbl.replace cache key (ep, stats);
    stats

let column (t : t) ~table ~attr =
  Option.bind (Hashtbl.find_opt t table) (fun ts -> List.assoc_opt attr ts.columns)

let ndv t ~table ~attr =
  Option.map (fun c -> c.ndv) (column t ~table ~attr)

let cardinality (t : t) table =
  Option.map (fun ts -> ts.card) (Hashtbl.find_opt t table)

(* Selectivity of an equality with a constant on the named column: 1/NDV
   when known. *)
let eq_selectivity t ~table ~attr =
  match ndv t ~table ~attr with
  | Some n when n > 0 -> Some (1.0 /. float_of_int n)
  | _ -> None

(* Join-key selectivity for an equi key between two columns: the textbook
   1 / max(NDV_left, NDV_right). *)
let join_selectivity t ~left_table ~left_attr ~right_table ~right_attr =
  match
    (ndv t ~table:left_table ~attr:left_attr,
     ndv t ~table:right_table ~attr:right_attr)
  with
  | Some a, Some b when a > 0 && b > 0 -> Some (1.0 /. float_of_int (max a b))
  | _ -> None

let pp ppf (t : t) =
  let entries =
    Hashtbl.fold
      (fun tbl ts acc ->
        List.fold_left (fun acc (attr, c) -> ((tbl, attr), c) :: acc) acc
          ts.columns)
      t []
    |> List.sort compare
  in
  List.iter
    (fun ((tbl, attr), c) ->
      Fmt.pf ppf "%s.%s: ndv=%d%a@." tbl attr c.ndv
        (fun ppf -> function
          | Some lo, Some hi -> Fmt.pf ppf " range=[%d,%d]" lo hi
          | _ -> ())
        (c.lo, c.hi))
    entries
