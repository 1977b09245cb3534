(** Division-based unnesting of universal quantification (Section 5.2.1's
    pointer to Codd's division operator) — an ablation alternative to the
    antijoin produced by Rule 1.

    Matches (post-normalization)
    [σ\[x : ¬∃y∈Y • (C(y) ∧ g(y) ∉ x.c)\](X)] and produces

    [(X ⋉ (μ_c(X) ÷ α\[y : ⟨c = g(y)⟩\](σ_C(Y))))
       ∪ σ\[x : ¬∃y∈σ_C(Y) • true\](X)]

    where the second operand handles the empty-divisor corner.  Requires an
    atomic element type for c and an oid attribute outside c (so that the
    A-projection identifies rows uniquely).  Enabled through
    [Strategy.options.enable_division]. *)

val rules : Rules.rule list
