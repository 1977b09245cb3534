(** The optimization strategy of Section 4, as a priority-ordered driver:

    1. rewrite to relational join operators (normalization, quantifier
       exchange, Rule 1, Rule 2, selection pushdown);
    2. if blocked, unnest set-valued attributes (μ) when the final nesting
       is not required and empty sets are harmless, then retry 1;
    3. if blocked, rewrite to the new operators — nestjoin by default, or
       the guarded flat-join / outer-join grouping variants for ablation;
    4. otherwise leave the query nested (nested-loop execution).

    Every phase records its derivation steps. *)

open Njq_adl

type grouping_mode =
  | Nestjoin_always  (** the paper's default *)
  | Flat_join_when_safe
      (** flat join+ν when P(x,∅) = false, nestjoin otherwise *)
  | Outerjoin  (** outer-join repair instead of the nestjoin *)

type options = {
  enable_division : bool;
      (** unnest universal quantification with the division operator
          instead of the antijoin (ablation; Section 5.2.1) *)
  grouping_mode : grouping_mode;
}

val default_options : options

type phase_trace = {
  phase : string;
  steps : Rules.trace;
}

type report = {
  input : Expr.t;
  output : Expr.t;
  phases : phase_trace list;
}

(** Run the full strategy, returning the rewritten query with its
    derivation. *)
val rewrite : ?options:options -> Catalog.t -> Expr.t -> report

(** Rewritten expression only. *)
val optimize : ?options:options -> Catalog.t -> Expr.t -> Expr.t

val pp_report : Format.formatter -> report -> unit

(** Total number of rewrite steps across phases. *)
val step_count : report -> int
