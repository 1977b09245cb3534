(** The ADL complex-object algebra (paper Section 3).

    Constructors cover the paper's full operator list — flatten, tuple
    subscription, except, map (α), selection (σ), projection (π), unnest
    (μ), nest (ν), Cartesian product, the join family (⋈, ⋉, ▷, left outer
    join), the Section 6 nestjoin (⊣), division, set operations,
    quantifiers, set comparisons, aggregate functions and the deref form of
    the materialize operator.  Iterators ([Map], [Select], joins, [Quant])
    bind variables in their parameter expressions. *)

type cmp = Eq | Neq | Lt | Le | Gt | Ge

(** Set comparison operators of Section 5.2.  [Ni] is the paper's ∋:
    [SetCmp (Ni, s, x)] holds when [x] is an element of the set [s]. *)
type setcmp =
  | Mem
  | NotMem
  | SubsetEq
  | Subset  (** proper *)
  | SupsetEq
  | Supset  (** proper *)
  | SetEq
  | SetNeq
  | Ni
  | NotNi

type arith = Add | Sub | Mul | Div | Mod
type agg = Count | Sum | Min | Max | Avg
type quant = Exists | Forall

(** [LeftOuter pad] pads dangling left tuples with NULLs on the attributes
    [pad] (the right-hand schema) — the outer-join repair of Section
    5.2.2. *)
type join_kind = Inner | Semi | Anti | LeftOuter of string list

type t =
  | Const of Value.t
  | Var of string
  | Param of int
      (** Prepared-query placeholder [?i].  Behaves as a free variable named
          ["?i"] until bound: {!Analysis.free_vars} reports it, so no pass
          constant-folds across it; binding substitutes a [Const] (one-shot)
          or a parameter-table field (batched). *)
  | Table of string  (** base table (class extent) *)
  | Tuple of (string * t) list
  | Field of t * string
  | TupleProj of t * string list  (** e[a1,...,an] *)
  | Except of t * (string * t) list
  | Concat of t * t  (** tuple concatenation ∘ *)
  | SetLit of t list
  | Arith of arith * t * t
  | Cmp of cmp * t * t
  | SetCmp of setcmp * t * t
  | And of t * t
  | Or of t * t
  | Not of t
  | If of t * t * t
  | Quant of quant * string * t * t  (** [Quant (q, x, range, pred)] *)
  | Map of { var : string; body : t; src : t }  (** α[x : body](src) *)
  | Select of { var : string; pred : t; src : t }  (** σ[x : pred](src) *)
  | Project of string list * t  (** π *)
  | Flatten of t
  | Union of t * t
  | Inter of t * t
  | Diff of t * t
  | Product of t * t
  | Join of
      { kind : join_kind; xvar : string; yvar : string; pred : t;
        left : t; right : t }
  | Nestjoin of
      { xvar : string; yvar : string; pred : t; body : t; attr : string;
        left : t; right : t }
      (** Extended nestjoin: each left tuple is concatenated with
          [(attr = {body(x,y) | y ∈ right, pred(x,y)})].  The simple
          nestjoin of Definition 1 has [body = Var yvar]. *)
  | Rename of (string * string) list * t
      (** ρ_(old→new, ...): rename top-level attributes of a set of tuples
          (the paper's renaming operator) *)
  | Unnest of string * t  (** μ_a *)
  | Nest of { attrs : string list; into : string; src : t }  (** ν_{attrs→into} *)
  | Divide of t * t
  | Agg of agg * t
  | Deref of string * t
      (** [Deref (cls, e)]: follow the oid [e] into extent [cls] — the
          logical materialize operator of Section 6.2. *)

(** Structural equality. *)
val equal : t -> t -> bool

(** Rebuild with [f] applied to each immediate sub-expression.  Binders are
    not tracked — binder-aware traversals live in {!Analysis}. *)
val map_children : (t -> t) -> t -> t

(** Fold over immediate sub-expressions. *)
val fold_children : ('a -> t -> 'a) -> 'a -> t -> 'a

(** {1 Boolean structure helpers} *)

val negate_cmp : cmp -> cmp

(** Complement operator, only meaningful where
    {!negated_setcmp_is_complement} holds (e.g. ¬∈ is ∉, but ¬⊆ is NOT ⊂). *)
val negate_setcmp : setcmp -> setcmp

val negated_setcmp_is_complement : setcmp -> bool

(** The free-variable name ["?i"] a [Param i] answers to in binder-aware
    passes.  Cannot collide with source identifiers. *)
val param_name : int -> string

val true_ : t
val false_ : t
val is_true : t -> bool
val is_false : t -> bool

(** View of nested conjunctions as a list, and back. *)
val conjuncts : t -> t list

val conjoin : t list -> t

(** {1 Fresh variables} *)

(** Fresh-name supply for capture-avoiding substitution and rewrite rules
    that introduce binders. *)
val fresh_var : string -> string
