(* Abstract syntax of OOSQL, the SQL-like orthogonal query language of the
   paper (Section 2).  Nesting is allowed in the select-, from- and
   where-clause; predicates may use quantifiers and set comparison
   operators; expressions in the from-clause may be base tables (class
   extensions) as well as set-valued attributes. *)

type pos = { line : int; col : int }

let dummy_pos = { line = 0; col = 0 }

(* Schema definitions *)

type sqltype =
  | SBool
  | SInt
  | SFloat
  | SString
  | SDate
  | SClass of string (* reference to a class by class name *)
  | STuple of (string * sqltype) list
  | SSet of sqltype

type class_def = {
  class_name : string;
  extent : string; (* name of the class extension (base table) *)
  attributes : (string * sqltype) list;
}

type schema = class_def list

(* Query expressions *)

type lit =
  | LBool of bool
  | LInt of int
  | LFloat of float
  | LString of string

type binop =
  (* arithmetic *)
  | Add | Sub | Mul | Div | Mod
  (* comparison; Eq/Neq double as set equality, resolved by typing *)
  | Eq | Neq | Lt | Le | Gt | Ge
  (* boolean *)
  | And | Or
  (* set operations *)
  | Union | Intersect | Except
  (* set comparisons *)
  | In | NotIn | SubsetEq | SubsetOp | SupsetEq | SupsetOp | Contains

type quant = QExists | QForall

type agg = ACount | ASum | AMin | AMax | AAvg

type expr =
  | ELit of lit * pos
  | EParam of int * pos (* ?i prepared-query placeholder *)
  | EVar of string * pos (* variable or class-extent name *)
  | EPath of expr * string * pos (* e.a, with implicit dereferencing *)
  | ETuple of (string * expr) list * pos
  | ESet of expr list * pos
  | EBin of binop * expr * expr * pos
  | ENot of expr * pos
  | EQuant of quant * string * expr * expr option * pos
      (* exists/forall x in e [: p]; a missing predicate means emptiness
         testing, as in the paper's Example Query 3.2 *)
  | EAgg of agg * expr * pos
  | ESfw of sfw * pos

and sfw = {
  proj : expr; (* the select-clause expression *)
  froms : (string * expr) list; (* from x1 in e1, x2 in e2, ... *)
  where : expr option;
}

(* A parsed program: optional schema declarations, then named view
   definitions (the paper's "named intermediate tables", whose expansion
   produces nesting in the from-clause), then an optional query. *)
type program = {
  classes : schema;
  defines : (string * expr) list;
  query : expr option;
}
