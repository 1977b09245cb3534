(** The quantifier-exchange heuristic (Section 5.2.1, Rewriting Example 3):
    move quantification over base tables to the left, out of quantification
    over set-valued attributes, so that Rule 1 applies.

    After normalization all quantifiers are existential, so one commutation
    suffices:
    [∃z∈c • (A ∧ ∃y∈Y • p)  =  ∃y∈Y • ∃z∈c • (A ∧ p)]
    for Y a base-table expression with z not free in Y (y is α-renamed). *)

val rules : Rules.rule list
