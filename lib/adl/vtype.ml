(* Types for ADL complex objects.

   The type language mirrors the value domain: atomic types, [TOid] for raw
   object identity, [TRef cls] for a typed reference to an object of class
   [cls] (implemented as an oid pointer, per the paper's logical design
   mapping), and the tuple and set constructors.  Tuple field lists are kept
   sorted by name so that type equality is structural equality. *)

type t =
  | TAny (* wildcard: the element type of an empty set literal *)
  | TBool
  | TInt
  | TFloat
  | TString
  | TDate
  | TOid
  | TRef of string (* reference to an object of the named class/extent *)
  | TTuple of (string * t) list
  | TSet of t

exception Type_error of string

let type_error fmt = Fmt.kstr (fun s -> raise (Type_error s)) fmt

let tuple fields =
  let sorted = List.sort (fun (a, _) (b, _) -> String.compare a b) fields in
  let rec check = function
    | (a, _) :: ((b, _) :: _ as rest) ->
      if String.equal a b then type_error "duplicate field %s in tuple type" a
      else check rest
    | _ -> ()
  in
  check sorted;
  TTuple sorted

let set t = TSet t

let rec equal a b =
  match a, b with
  | TAny, TAny -> true
  | TBool, TBool | TInt, TInt | TFloat, TFloat | TString, TString
  | TDate, TDate | TOid, TOid -> true
  | TRef c1, TRef c2 -> String.equal c1 c2
  | TTuple xs, TTuple ys ->
    List.length xs = List.length ys
    && List.for_all2 (fun (n1, t1) (n2, t2) -> String.equal n1 n2 && equal t1 t2) xs ys
  | TSet x, TSet y -> equal x y
  | ( TAny | TBool | TInt | TFloat | TString | TDate | TOid | TRef _
    | TTuple _ | TSet _ ), _ ->
    false

(* Structural compatibility treating [TAny] as a wildcard on either side;
   this is the notion of "same type" used by the typechecker, where [TAny]
   only ever arises from empty set literals. *)
let rec compat a b =
  match a, b with
  | TAny, _ | _, TAny -> true
  | TTuple xs, TTuple ys ->
    List.length xs = List.length ys
    && List.for_all2 (fun (n1, t1) (n2, t2) -> String.equal n1 n2 && compat t1 t2) xs ys
  | TSet x, TSet y -> compat x y
  | (TOid | TRef _), (TOid | TRef _) -> true
  | _ -> equal a b

(* Least upper bound of two compatible types: prefers the more informative
   side wherever the other is [TAny]. *)
let rec lub a b =
  match a, b with
  | TAny, t | t, TAny -> t
  | TSet x, TSet y -> TSet (lub x y)
  | TTuple xs, TTuple ys when List.length xs = List.length ys ->
    TTuple (List.map2 (fun (n, t1) (_, t2) -> (n, lub t1 t2)) xs ys)
  | _ -> a

let fields = function
  | TTuple fs -> fs
  | _ -> type_error "fields of non-tuple type"

(* The paper's SCH function: top-level attribute names of a table type. *)
let sch = function
  | TSet (TTuple fs) -> List.map fst fs
  | _ -> type_error "SCH applied to a non-table type"

let field ty a =
  match ty with
  | TTuple fs ->
    (match List.assoc_opt a fs with
     | Some t -> t
     | None -> type_error "type has no field %s" a)
  | _ -> type_error "field %s of non-tuple type" a

let has_field ty a =
  match ty with TTuple fs -> List.mem_assoc a fs | _ -> false

let project ty attrs =
  match ty with
  | TTuple fs ->
    tuple
      (List.map
         (fun a ->
           match List.assoc_opt a fs with
           | Some t -> (a, t)
           | None -> type_error "projection type: missing field %s" a)
         attrs)
  | _ -> type_error "tuple projection on non-tuple type"

let project_away ty attrs =
  match ty with
  | TTuple fs -> tuple (List.filter (fun (a, _) -> not (List.mem a attrs)) fs)
  | _ -> type_error "tuple projection on non-tuple type"

(* Concatenation of tuple types (for products and joins). *)
let concat a b =
  match a, b with
  | TTuple fa, TTuple fb ->
    List.iter
      (fun (n, _) ->
        if List.mem_assoc n fa then type_error "type concat: duplicate field %s" n)
      fb;
    tuple (fa @ fb)
  | _ -> type_error "type concat on non-tuple types"

let rec pp ppf = function
  | TAny -> Fmt.string ppf "_"
  | TBool -> Fmt.string ppf "bool"
  | TInt -> Fmt.string ppf "int"
  | TFloat -> Fmt.string ppf "float"
  | TString -> Fmt.string ppf "string"
  | TDate -> Fmt.string ppf "date"
  | TOid -> Fmt.string ppf "oid"
  | TRef c -> Fmt.pf ppf "ref %s" c
  | TTuple fs ->
    Fmt.pf ppf "(@[%a@])"
      (Fmt.list ~sep:Fmt.comma (fun ppf (n, t) -> Fmt.pf ppf "%s : %a" n pp t))
      fs
  | TSet t -> Fmt.pf ppf "{ %a }" pp t

let show t = Fmt.str "%a" pp t

(* [of_value v] infers the type of a closed value.  Sets of mixed element
   types and NULL are rejected: they have no type in the model. *)
let rec of_value (v : Value.t) : t =
  match v with
  | Value.VNull -> type_error "NULL has no type"
  | Value.VBool _ -> TBool
  | Value.VInt _ -> TInt
  | Value.VFloat _ -> TFloat
  | Value.VString _ -> TString
  | Value.VDate _ -> TDate
  | Value.VOid _ -> TOid
  | Value.VTuple fs -> tuple (List.map (fun (n, x) -> (n, of_value x)) fs)
  | Value.VSet [] -> type_error "empty set has no inferable element type"
  | Value.VSet (x :: rest) ->
    let t = of_value x in
    List.iter
      (fun y -> if not (equal t (of_value y)) then type_error "heterogeneous set")
      rest;
    TSet t

(* [check_value ty v] verifies that closed value [v] inhabits [ty]; unlike
   [of_value] it accepts empty sets (at any set type) and treats references
   as oids. *)
let rec check_value ty (v : Value.t) : bool =
  match ty, v with
  | TAny, _ -> true
  | TBool, Value.VBool _ -> true
  | TInt, Value.VInt _ -> true
  | TFloat, Value.VFloat _ -> true
  | TString, Value.VString _ -> true
  | TDate, Value.VDate _ -> true
  | (TOid | TRef _), Value.VOid _ -> true
  | TTuple fs, Value.VTuple vs ->
    List.length fs = List.length vs
    && List.for_all2
         (fun (n, t) (m, x) -> String.equal n m && check_value t x)
         fs vs
  | TSet t, Value.VSet xs -> List.for_all (check_value t) xs
  | _ -> false
