(* Engine-wide memory budget, in rows.

   [budget] is the |M| of the paper's Section 6.2 generalized to the whole
   engine: the number of build-side rows any single operator may hold
   resident at once.  It defaults to [max_int] (everything fits, no
   operator spills) and is set per invocation from the CLI/serve
   [--mem-budget] option.  It is the only budget, and two layers read it:

   - {!Planner}'s policy pass partitions keyed hash joins whose estimated
     build side exceeds it ([Plan.Partitioned] carrying it), and clamps
     PNHL's [mem_budget] to it;
   - {!Cost} charges spill I/O for over-budget builds, steering the
     join-order enumerator toward non-spilling orders.

   [Exec] never reads it: spilling is a policy value the plan carries.
   The bound is per partition, not per pool: spilled partitions run as
   pool tasks, so at K domains up to K partitions (each within the
   budget) are resident at once. *)

let budget : int ref = ref max_int

let unlimited () = !budget = max_int

(* Parse a CLI budget spec: a positive integer with an optional [k]
   (x 1024) or [m] (x 1024^2) suffix, case-insensitive.  [None] on
   anything else (zero, negative, garbage). *)
let parse (s : string) : int option =
  let s = String.trim s in
  let n = String.length s in
  if n = 0 then None
  else begin
    let mult, digits =
      match Char.lowercase_ascii s.[n - 1] with
      | 'k' -> (1024, String.sub s 0 (n - 1))
      | 'm' -> (1024 * 1024, String.sub s 0 (n - 1))
      | _ -> (1, s)
    in
    match int_of_string_opt digits with
    | Some v when v > 0 && v <= max_int / mult -> Some (v * mult)
    | _ -> None
  end
