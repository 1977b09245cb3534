(** Rewriting into flat relational join queries (Section 5).

    Rule 1 (unnesting quantifier expressions), applied conjunct-wise:
    - [σ\[x : ∃y∈Y • p\](X)  =  X ⋉\[x,y : p\] Y]
    - [σ\[x : ¬∃y∈Y • p\](X) =  X ▷\[x,y : p\] Y]

    Rule 2 (nesting in the map operator):
    - [⋃(α\[x : α\[y : x∘y\](σ\[y : p\](Y))\](X))  =  X ⋈\[x,y : p\] Y]

    plus selection pushdown into join operands (right side for every kind;
    left side only for inner and semi joins). *)

(** Merge σ∘σ into one selection (kept out of {!rules}; the strategy adds
    it to the relational phase). *)
val merge_selects : Rules.rule

val rules : Rules.rule list
