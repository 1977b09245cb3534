(** Logical cleanup rules run as the strategy's final phase: classical
    algebraic reductions (cf. [KeMo93]) that shrink intermediate results
    without changing the unnesting decisions — projection-join reduction
    (π∘⋈ → π∘⋉ when only left attributes survive), projection merging and
    elimination, and distribution of σ/α/π over unions. *)

val rules : Rules.rule list
