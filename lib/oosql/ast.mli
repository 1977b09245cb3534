(** Abstract syntax of OOSQL (paper Section 2): an orthogonal SQL-like
    language with nesting allowed in the select-, from- and where-clauses,
    quantifiers, set comparison operators and set-valued attributes. *)

type pos = { line : int; col : int }

val dummy_pos : pos

(** {1 Schema definitions} *)

type sqltype =
  | SBool
  | SInt
  | SFloat
  | SString
  | SDate
  | SClass of string  (** reference to a class by class name *)
  | STuple of (string * sqltype) list
  | SSet of sqltype

type class_def = {
  class_name : string;
  extent : string;  (** name of the class extension (base table) *)
  attributes : (string * sqltype) list;
}

type schema = class_def list

(** {1 Query expressions} *)

type lit = LBool of bool | LInt of int | LFloat of float | LString of string

type binop =
  | Add | Sub | Mul | Div | Mod
  | Eq | Neq | Lt | Le | Gt | Ge
      (** [Eq]/[Neq] double as set equality, resolved by typing *)
  | And | Or
  | Union | Intersect | Except
  | In | NotIn | SubsetEq | SubsetOp | SupsetEq | SupsetOp | Contains

type quant = QExists | QForall
type agg = ACount | ASum | AMin | AMax | AAvg

type expr =
  | ELit of lit * pos
  | EParam of int * pos  (** [?i] prepared-query placeholder *)
  | EVar of string * pos  (** variable or class-extent name *)
  | EPath of expr * string * pos  (** [e.a], with implicit dereferencing *)
  | ETuple of (string * expr) list * pos
  | ESet of expr list * pos
  | EBin of binop * expr * expr * pos
  | ENot of expr * pos
  | EQuant of quant * string * expr * expr option * pos
      (** [exists/forall x in e \[: p\]]; a missing predicate is an
          emptiness test (Example Query 3.2) *)
  | EAgg of agg * expr * pos
  | ESfw of sfw * pos

and sfw = {
  proj : expr;
  froms : (string * expr) list;
  where : expr option;
}

(** A parsed program: class declarations, named view definitions (the
    paper's "named intermediate tables"), then an optional query. *)
type program = {
  classes : schema;
  defines : (string * expr) list;
  query : expr option;
}
