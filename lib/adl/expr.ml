(* The ADL complex-object algebra (Section 3 of the paper).

   The AST covers the paper's full operator list: flatten, tuple subscription,
   except, map (alpha), selection (sigma), projection (pi), unnest (mu), nest
   (nu), Cartesian product, regular join, semijoin, antijoin, plus the new
   operators of Section 6 (nestjoin) and the outer-join variant discussed in
   Section 5.2.2, division, set operations, quantifiers, set comparisons and
   aggregate functions.  Expressions with free variables are the parameter
   functions (lambda expressions) of iterators: [Map], [Select], the join
   family and [Quant] are the iterators, binding their variable(s) in the
   parameter expression.

   The reference evaluator ([Eval]) gives these constructors exactly the
   semantics of the paper's items 1-12; the rewriter ([Njq_core]) transforms
   between them. *)

type cmp = Eq | Neq | Lt | Le | Gt | Ge

(* Set comparison operators of Section 5.2: element membership, the four
   inclusion operators, set equality, and the paper's "contains as element"
   operator (written x.c 'ni' Y': Y' is an element of the set-of-sets x.c). *)
type setcmp =
  | Mem        (* x in S *)
  | NotMem
  | SubsetEq   (* S1 'subseteq' S2 *)
  | Subset     (* proper *)
  | SupsetEq
  | Supset     (* proper *)
  | SetEq
  | SetNeq
  | Ni         (* S 'ni' x : x is an element of S *)
  | NotNi

type arith = Add | Sub | Mul | Div | Mod

type agg = Count | Sum | Min | Max | Avg

type quant = Exists | Forall

(* [LeftOuter pad] concatenates dangling left tuples with a tuple assigning
   NULL to every attribute in [pad] (the right-hand schema), following the
   outer-join repair of the COUNT bug recalled in Section 5.2.2. *)
type join_kind = Inner | Semi | Anti | LeftOuter of string list

type t =
  | Const of Value.t
  | Var of string
  | Param of int                               (* prepared-query placeholder ?i *)
  | Table of string                            (* base table (class extent) *)
  | Tuple of (string * t) list                 (* tuple construction *)
  | Field of t * string                        (* e.a *)
  | TupleProj of t * string list               (* e[a1,...,an] *)
  | Except of t * (string * t) list            (* e except (a = e', ...) *)
  | Concat of t * t                            (* tuple concatenation o *)
  | SetLit of t list
  | Arith of arith * t * t
  | Cmp of cmp * t * t
  | SetCmp of setcmp * t * t
  | And of t * t
  | Or of t * t
  | Not of t
  | If of t * t * t
  | Quant of quant * string * t * t            (* Q x 'in' range . pred *)
  | Map of { var : string; body : t; src : t } (* alpha[x : body](src) *)
  | Select of { var : string; pred : t; src : t } (* sigma[x : pred](src) *)
  | Project of string list * t                 (* pi_{attrs}(src) *)
  | Flatten of t                               (* multiple union *)
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
      (* el -|[x,y : pred ; body ; attr] er: each left tuple is concatenated
         with (attr = { body(y) | y in er, pred(x,y) }).  [body] is the extra
         function parameter of the extended nestjoin of [StAB94]; the simple
         nestjoin of Definition 1 has body = Var yvar. *)
  | Rename of (string * string) list * t
      (* rho_{old->new,...}(e): rename top-level attributes of a set of
         tuples (the paper's renaming operator) *)
  | Unnest of string * t                       (* mu_a(e) *)
  | Nest of { attrs : string list; into : string; src : t } (* nu_{A -> a}(e) *)
  | Divide of t * t                            (* relational division *)
  | Agg of agg * t
  | Deref of string * t
      (* Deref (cls, e): follow the oid reference [e] into extent [cls],
         yielding the referenced object; the logical form of the materialize
         operator of Section 6.2. *)

let equal (a : t) (b : t) = Stdlib.compare a b = 0

(* [map_children f e] rebuilds [e] with [f] applied to each immediate
   sub-expression.  Binding structure is NOT taken into account: callers that
   care about binders (substitution, free variables) implement their own
   recursion; [map_children] serves whole-tree rewriting drivers that treat
   variables by name. *)
let map_children f e =
  match e with
  | Const _ | Var _ | Param _ | Table _ -> e
  | Tuple fs -> Tuple (List.map (fun (n, x) -> (n, f x)) fs)
  | Field (x, a) -> Field (f x, a)
  | TupleProj (x, attrs) -> TupleProj (f x, attrs)
  | Except (x, us) -> Except (f x, List.map (fun (n, u) -> (n, f u)) us)
  | Concat (a, b) -> Concat (f a, f b)
  | SetLit xs -> SetLit (List.map f xs)
  | Arith (op, a, b) -> Arith (op, f a, f b)
  | Cmp (op, a, b) -> Cmp (op, f a, f b)
  | SetCmp (op, a, b) -> SetCmp (op, f a, f b)
  | And (a, b) -> And (f a, f b)
  | Or (a, b) -> Or (f a, f b)
  | Not a -> Not (f a)
  | If (c, a, b) -> If (f c, f a, f b)
  | Quant (q, x, range, pred) -> Quant (q, x, f range, f pred)
  | Map { var; body; src } -> Map { var; body = f body; src = f src }
  | Select { var; pred; src } -> Select { var; pred = f pred; src = f src }
  | Project (attrs, x) -> Project (attrs, f x)
  | Flatten x -> Flatten (f x)
  | Union (a, b) -> Union (f a, f b)
  | Inter (a, b) -> Inter (f a, f b)
  | Diff (a, b) -> Diff (f a, f b)
  | Product (a, b) -> Product (f a, f b)
  | Join j -> Join { j with pred = f j.pred; left = f j.left; right = f j.right }
  | Nestjoin j ->
    Nestjoin
      { j with pred = f j.pred; body = f j.body; left = f j.left; right = f j.right }
  | Rename (pairs, x) -> Rename (pairs, f x)
  | Unnest (a, x) -> Unnest (a, f x)
  | Nest n -> Nest { n with src = f n.src }
  | Divide (a, b) -> Divide (f a, f b)
  | Agg (op, x) -> Agg (op, f x)
  | Deref (cls, x) -> Deref (cls, f x)

(* [fold_children f acc e] folds [f] over the immediate sub-expressions. *)
let fold_children f acc e =
  match e with
  | Const _ | Var _ | Param _ | Table _ -> acc
  | Tuple fs -> List.fold_left (fun acc (_, x) -> f acc x) acc fs
  | Field (x, _) | TupleProj (x, _) | Flatten x | Project (_, x)
  | Rename (_, x) | Unnest (_, x) | Agg (_, x) | Not x | Deref (_, x) -> f acc x
  | Except (x, us) -> List.fold_left (fun acc (_, u) -> f acc u) (f acc x) us
  | Concat (a, b) | Arith (_, a, b) | Cmp (_, a, b) | SetCmp (_, a, b)
  | And (a, b) | Or (a, b) | Union (a, b) | Inter (a, b) | Diff (a, b)
  | Product (a, b) | Divide (a, b) -> f (f acc a) b
  | SetLit xs -> List.fold_left f acc xs
  | If (c, a, b) -> f (f (f acc c) a) b
  | Quant (_, _, range, pred) -> f (f acc range) pred
  | Map { body; src; _ } -> f (f acc body) src
  | Select { pred; src; _ } -> f (f acc pred) src
  | Join { pred; left; right; _ } -> f (f (f acc pred) left) right
  | Nestjoin { pred; body; left; right; _ } -> f (f (f (f acc pred) body) left) right
  | Nest { src; _ } -> f acc src

(* Negation of a comparison operator, used when pushing 'not' inward. *)
let negate_cmp = function
  | Eq -> Neq | Neq -> Eq | Lt -> Ge | Le -> Gt | Gt -> Le | Ge -> Lt

let negate_setcmp = function
  | Mem -> NotMem | NotMem -> Mem
  | SubsetEq -> Subset | Subset -> SubsetEq
  | SupsetEq -> Supset | Supset -> SupsetEq
  | SetEq -> SetNeq | SetNeq -> SetEq
  | Ni -> NotNi | NotNi -> Ni

(* NOTE: [negate_setcmp] is only meaningful through [negate_setcmp_strict];
   'not (A 'subseteq' B)' is NOT 'A 'subset' B'.  The rewriter never uses it
   directly; it is exposed for the strict variant below. *)
let negated_setcmp_is_complement = function
  | Mem | NotMem | SetEq | SetNeq | Ni | NotNi -> true
  | SubsetEq | Subset | SupsetEq | Supset -> false

(* Parameters masquerade as free variables named "?i" inside binder-aware
   passes (free-variable analysis, substitution, compiled environments): the
   name space cannot collide with source identifiers because '?' never lexes
   as part of one. *)
let param_name i = "?" ^ string_of_int i

let true_ = Const (Value.VBool true)
let false_ = Const (Value.VBool false)

let is_true = function Const (Value.VBool true) -> true | _ -> false
let is_false = function Const (Value.VBool false) -> true | _ -> false

(* Conjunction list view: P1 'and' P2 'and' ... <-> [P1; P2; ...]. *)
let rec conjuncts = function
  | And (a, b) -> conjuncts a @ conjuncts b
  | p -> [ p ]

let conjoin = function
  | [] -> true_
  | p :: ps -> List.fold_left (fun acc q -> And (acc, q)) p ps

(* Fresh-variable supply for capture-avoiding substitution and for rewrite
   rules that introduce binders. *)
let fresh_counter = ref 0

let fresh_var prefix =
  incr fresh_counter;
  Printf.sprintf "%s_%d" prefix !fresh_counter
