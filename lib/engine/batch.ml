(* Column batches with selection vectors for the push-based executor.

   Pushing one row at a time pays a consumer call per row at every fused
   edge, and a filter would copy its survivors.  A batch amortizes the
   call over N rows and copies nothing:

   - the physical rows stay [Value.t] (the reference semantics — batches
     materialize back to plain rows at pipeline breakers and the root);
   - a batch is a window [off, off+len) into a shared row array (scans cut
     batches out of the catalog's cached row array with no per-row
     allocation at all);
   - filters do not copy survivors: they mark them in a *selection vector*
     of physical indices, which only ever shrinks as a batch flows through
     consecutive filters; a filter tests each live row with its compiled
     predicate ([Compile.pred1]) through [keep_rows]. *)

open Njq_adl

(* ------------------------------------------------------------------ *)
(* Batch size                                                          *)
(* ------------------------------------------------------------------ *)

(* Rows per batch.  256 is the measured sweet spot of the sweep over
   batch sizes 64/256/1024 (EXPERIMENTS.md B15).  Results do not depend
   on it; only the tests set it, to exercise singleton and ragged
   batches. *)
let size = ref 256

(* ------------------------------------------------------------------ *)
(* The batch record                                                    *)
(* ------------------------------------------------------------------ *)

type t = {
  rows : Value.t array;  (* physical rows; shared, never mutated *)
  off : int;
  len : int;
  mutable sel : int array;
      (* selection vector: strictly increasing physical indices into
         [rows]; meaningful prefix is [0, nsel) *)
  mutable nsel : int;  (* -1: no selection yet, all of [off, off+len) live *)
}

let view rows ~off ~len = { rows; off; len; sel = [||]; nsel = -1 }
let of_array rows = view rows ~off:0 ~len:(Array.length rows)
let live b = if b.nsel < 0 then b.len else b.nsel

(* Row at live position [j] (0-based over the current survivors). *)
let get b j =
  if b.nsel < 0 then b.rows.(b.off + j) else b.rows.(b.sel.(j))

let iter f b =
  if b.nsel < 0 then
    for i = b.off to b.off + b.len - 1 do
      f b.rows.(i)
    done
  else
    for j = 0 to b.nsel - 1 do
      f b.rows.(b.sel.(j))
    done

(* [keep b f] filters the batch in place: [f j] decides the fate of live
   position [j].  The first filter allocates the selection vector; later
   filters compact it in place (reads run ahead of writes), so selections
   only ever shrink — the monotonicity invariant consumers rely on. *)
let keep b f =
  if b.nsel < 0 then begin
    let sel = Array.make (max 1 b.len) 0 in
    let n = ref 0 in
    for j = 0 to b.len - 1 do
      if f j then begin
        sel.(!n) <- b.off + j;
        incr n
      end
    done;
    b.sel <- sel;
    b.nsel <- !n
  end
  else begin
    let n = ref 0 in
    for j = 0 to b.nsel - 1 do
      if f j then begin
        b.sel.(!n) <- b.sel.(j);
        incr n
      end
    done;
    b.nsel <- !n
  end

let keep_rows b f = keep b (fun j -> f (get b j))

(* ------------------------------------------------------------------ *)
(* Builders                                                            *)
(* ------------------------------------------------------------------ *)

(* Accumulate produced rows into owned batches of (up to) [!size] rows,
   emitting each batch as it fills; [flush] emits the tail.  The buffer is
   handed off whole inside the emitted batch (consumers may retain it), so
   a fresh one is allocated per emitted batch — amortized one word per
   produced row. *)
type builder = {
  emit : t -> unit;
  mutable buf : Value.t array;  (* [||] = nothing buffered yet *)
  mutable n : int;
}

let builder emit = { emit; buf = [||]; n = 0 }

let add bld v =
  let cap = Array.length bld.buf in
  if bld.n = cap then
    if cap = 0 then bld.buf <- Array.make (max 1 !size) v
    else begin
      bld.emit { rows = bld.buf; off = 0; len = cap; sel = [||]; nsel = -1 };
      bld.buf <- Array.make cap v;
      bld.n <- 0
    end;
  bld.buf.(bld.n) <- v;
  bld.n <- bld.n + 1

let flush bld =
  if bld.n > 0 then begin
    bld.emit { rows = bld.buf; off = 0; len = bld.n; sel = [||]; nsel = -1 };
    bld.buf <- [||];
    bld.n <- 0
  end

(* ------------------------------------------------------------------ *)
(* Pre-sized row vector (the root materialization sink)                *)
(* ------------------------------------------------------------------ *)

(* A growable row vector for [Exec.gather]: pre-sized from the planner's
   cardinality estimate, filled in order, converted to a list once — no
   cons-then-reverse double pass over the result. *)
module Vec = struct
  type t = { mutable arr : Value.t array; mutable n : int }

  let create hint = { arr = Array.make (max 16 hint) Value.VNull; n = 0 }

  let push v x =
    let cap = Array.length v.arr in
    if v.n = cap then begin
      let arr = Array.make (2 * cap) Value.VNull in
      Array.blit v.arr 0 arr 0 cap;
      v.arr <- arr
    end;
    v.arr.(v.n) <- x;
    v.n <- v.n + 1

  let push_batch v b = iter (push v) b

  let to_list v =
    let rec go i acc = if i < 0 then acc else go (i - 1) (v.arr.(i) :: acc) in
    go (v.n - 1) []
end
