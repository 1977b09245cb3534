(** Option (2) of Section 4: unnesting of set-valued attributes with μ.

    Applied only when the attribute is not needed in the result (dropped by
    the projection or untouched by the map body) and the quantification
    over the attribute is existential, so that tuples with empty attribute
    sets — which μ drops — would not qualify anyway.  The flagship instance
    is Example Query 4:

    [π_sid(σ\[s : ∃z∈s.parts • ψ\](SUPPLIER))
       = π_sid(σ\[u : ψ'\](μ_parts(SUPPLIER)))]

    after which Rule 1 yields the paper's antijoin query. *)

val rules : Rules.rule list
