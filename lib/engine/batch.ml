(* Column batches with selection vectors for the push-based executor.

   Pushing one row at a time pays per-row taxes that have nothing to do
   with the query: a boxed [Value.VBool] per compiled predicate
   evaluation, a [List.sort] inside [Value.tuple] per mapped row, an
   assoc scan per projected attribute.  A batch amortizes those taxes
   over N rows:

   - the physical rows stay [Value.t] (the reference semantics — batches
     materialize back to plain rows at pipeline breakers and the root);
   - a batch is a window [off, off+len) into a shared row array (scans cut
     batches out of the catalog's cached row array with no per-row
     allocation at all);
   - filters do not copy survivors: they mark them in a *selection vector*
     of physical indices, which only ever shrinks as a batch flows through
     consecutive filters;
   - predicate leaves of the form [row.attr CMP const] ([Compile.vpred])
     run over a decoded *typed column*: int/oid/date and float attributes
     decode into [Bigarray] buffers whose payload lives outside the OCaml
     minor heap, genuinely mixed attributes fall back to a boxed column,
     and each comparison produces an unboxed [bool] — no [VBool] per row.

   Decoding is per batch and failure-safe: if extracting an attribute
   raises (missing field, non-tuple row), the kernel falls back to per-row
   evaluation so the exception surfaces on exactly the row where [Eval]
   would raise it.  Comparisons themselves are pure
   ([Value.compare] is total), so a successful decode cannot change
   results, only their cost. *)

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
(* Typed columns                                                       *)
(* ------------------------------------------------------------------ *)

type int_col = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

type float_col =
  (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

(* A decoded attribute over the batch's live rows (dense: position [j] is
   live position [j]).  Int-like atoms share the int representation but
   keep their constructor tag in the variant; a [Bigarray] payload lives
   outside the OCaml heap, so a decoded column costs a constant few minor
   words regardless of row count.  [CBox] is the boxed tag column for
   genuinely mixed attributes. *)
type col =
  | CInt of int_col
  | CFloat of float_col
  | COid of int_col
  | CDate of int_col
  | CBox of Value.t array

exception Mixed

(* Decode attribute [attr] over the live rows, choosing the representation
   from the first row and demoting to [CBox] when a later row deviates.
   [None] when extraction itself fails anywhere — the caller must then
   evaluate per row so the error surfaces on the right row. *)
let column b attr =
  let n = live b in
  if n = 0 then Some (CBox [||])
  else
    match Value.field (get b 0) attr with
    | exception Value.Type_error _ -> None
    | v0 ->
      (try
         let box () = CBox (Array.init n (fun j -> Value.field (get b j) attr)) in
         match v0 with
         | Value.VInt _ | Value.VOid _ | Value.VDate _ ->
           let arr = Bigarray.Array1.create Bigarray.int Bigarray.c_layout n in
           (try
              for j = 0 to n - 1 do
                arr.{j} <-
                  (match v0, Value.field (get b j) attr with
                   | Value.VInt _, Value.VInt x
                   | Value.VOid _, Value.VOid x
                   | Value.VDate _, Value.VDate x ->
                     x
                   | _ -> raise Mixed)
              done;
              Some
                (match v0 with
                 | Value.VInt _ -> CInt arr
                 | Value.VOid _ -> COid arr
                 | _ -> CDate arr)
            with Mixed -> Some (box ()))
         | Value.VFloat _ ->
           let arr =
             Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout n
           in
           (try
              for j = 0 to n - 1 do
                arr.{j} <-
                  (match Value.field (get b j) attr with
                   | Value.VFloat x -> x
                   | _ -> raise Mixed)
              done;
              Some (CFloat arr)
            with Mixed -> Some (box ()))
         | _ -> Some (box ())
       with Value.Type_error _ -> None)

(* ------------------------------------------------------------------ *)
(* Predicate kernels                                                   *)
(* ------------------------------------------------------------------ *)

let test_int (op : Expr.cmp) (a : int) b =
  match op with
  | Expr.Eq -> a = b
  | Expr.Neq -> a <> b
  | Expr.Lt -> a < b
  | Expr.Le -> a <= b
  | Expr.Gt -> a > b
  | Expr.Ge -> a >= b

let test_ord (op : Expr.cmp) c =
  match op with
  | Expr.Eq -> c = 0
  | Expr.Neq -> c <> 0
  | Expr.Lt -> c < 0
  | Expr.Le -> c <= 0
  | Expr.Gt -> c > 0
  | Expr.Ge -> c >= 0

(* Compile a vectorizable predicate against one batch: columns referenced
   by comparison leaves decode once per batch, And/Or/Not short-circuit per
   row exactly like the compiled row closures ([And]'s right side runs only
   when the left holds, [Or]'s only when the left fails).  A leaf whose
   column and constant have different shapes is constant — [Value.compare]
   across constructors is a rank comparison — so the whole batch answers
   with one precomputed bool. *)
let rec kernel b (vp : Compile.vpred) : int -> bool =
  match vp with
  | Compile.VpTrue -> fun _ -> true
  | Compile.VpFalse -> fun _ -> false
  | Compile.VpNot p ->
    let k = kernel b p in
    fun j -> not (k j)
  | Compile.VpAnd (p, q) ->
    let kp = kernel b p and kq = kernel b q in
    fun j -> kp j && kq j
  | Compile.VpOr (p, q) ->
    let kp = kernel b p and kq = kernel b q in
    fun j -> kp j || kq j
  | Compile.VpOpaque f -> fun j -> f (get b j)
  | Compile.VpCmp (op, attr, c) ->
    (match column b attr with
     | None ->
       (* Extraction fails somewhere: evaluate per row so the error
          surfaces on exactly the row [Eval] raises on. *)
       fun j -> Eval.eval_cmp op (Value.field (get b j) attr) c
     | Some (CInt arr) ->
       (match c with
        | Value.VInt k -> fun j -> test_int op arr.{j} k
        | _ ->
          let ans = Eval.eval_cmp op (Value.VInt 0) c in
          fun _ -> ans)
     | Some (COid arr) ->
       (match c with
        | Value.VOid k -> fun j -> test_int op arr.{j} k
        | _ ->
          let ans = Eval.eval_cmp op (Value.VOid 0) c in
          fun _ -> ans)
     | Some (CDate arr) ->
       (match c with
        | Value.VDate k -> fun j -> test_int op arr.{j} k
        | _ ->
          let ans = Eval.eval_cmp op (Value.VDate 0) c in
          fun _ -> ans)
     | Some (CFloat arr) ->
       (match c with
        | Value.VFloat k -> fun j -> test_ord op (Float.compare arr.{j} k)
        | _ ->
          let ans = Eval.eval_cmp op (Value.VFloat 0.) c in
          fun _ -> ans)
     | Some (CBox arr) -> fun j -> Eval.eval_cmp op arr.(j) c)

let keep_vpred vp b = keep b (kernel b vp)

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
