(* Deterministic splitmix64 pseudo-random number generator.

   All workload generation and property tests derive their randomness from
   this module so that every experiment in the repository is reproducible
   from a seed, independently of the OCaml stdlib Random implementation. *)

type t = { mutable state : int64 }

let create seed = { state = Int64.of_int seed }

let golden_gamma = 0x9E3779B97F4A7C15L

(* One splitmix64 step: advance the state by the golden gamma and mix. *)
let next_int64 t =
  t.state <- Int64.add t.state golden_gamma;
  let z = t.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* A non-negative int uniform over [0, bound). *)
let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  let r = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2) in
  r mod bound

(* Uniform over the inclusive range [lo, hi]. *)
let int_in_range t ~lo ~hi =
  if hi < lo then invalid_arg "Rng.int_in_range: empty range";
  lo + int t (hi - lo + 1)

let float t =
  (* 53 random bits scaled into [0, 1). *)
  let bits = Int64.to_int (Int64.shift_right_logical (next_int64 t) 11) in
  float_of_int bits /. 9007199254740992.0

(* Bernoulli draw with probability [p] of returning true. *)
let chance t p = float t < p

let pick_array t xs =
  if Array.length xs = 0 then invalid_arg "Rng.pick_array: empty array";
  xs.(int t (Array.length xs))

(* Fisher-Yates shuffle, in place on a copy; returns the shuffled list. *)
let shuffle t xs =
  let a = Array.of_list xs in
  let n = Array.length a in
  for i = n - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done;
  Array.to_list a

(* [sample t k xs] draws [k] distinct elements from [xs] (or all of them if
   [k] exceeds the length), preserving no particular order. *)
let sample t k xs =
  let shuffled = shuffle t xs in
  let rec take n = function
    | [] -> []
    | _ when n = 0 -> []
    | x :: rest -> x :: take (n - 1) rest
  in
  take k shuffled
