(* Logical database design: mapping OOSQL class definitions to ADL types and
   catalog tables (Section 3 of the paper).

   Each class extension becomes a table of (possibly complex) objects; a
   field of type oid is added to represent object identity, and class
   references are implemented by typed oid pointers into the referenced
   extent. *)

exception Schema_error of string

let error fmt = Fmt.kstr (fun s -> raise (Schema_error s)) fmt

let find_class (schema : Ast.schema) name =
  match List.find_opt (fun c -> String.equal c.Ast.class_name name) schema with
  | Some c -> c
  | None -> error "unknown class %s" name

(* Extent name of a class. *)
let extent_of (schema : Ast.schema) class_name = (find_class schema class_name).extent

(* Map an OOSQL type to an ADL type; class references become TRef of the
   referenced class's extent name (the catalog key). *)
let rec vtype_of_sqltype schema (t : Ast.sqltype) : Njq_adl.Vtype.t =
  match t with
  | Ast.SBool -> Njq_adl.Vtype.TBool
  | Ast.SInt -> Njq_adl.Vtype.TInt
  | Ast.SFloat -> Njq_adl.Vtype.TFloat
  | Ast.SString -> Njq_adl.Vtype.TString
  | Ast.SDate -> Njq_adl.Vtype.TDate
  | Ast.SClass c -> Njq_adl.Vtype.TRef (extent_of schema c)
  | Ast.STuple fields ->
    Njq_adl.Vtype.tuple
      (List.map (fun (n, ft) -> (n, vtype_of_sqltype schema ft)) fields)
  | Ast.SSet t -> Njq_adl.Vtype.TSet (vtype_of_sqltype schema t)

(* The row type of a class's extent: the declared attributes plus the
   implicit oid field. *)
let row_type schema (c : Ast.class_def) : Njq_adl.Vtype.t =
  if List.mem_assoc "oid" c.Ast.attributes then
    error "class %s declares a reserved attribute 'oid'" c.Ast.class_name;
  Njq_adl.Vtype.tuple
    (("oid", Njq_adl.Vtype.TOid)
     :: List.map (fun (n, t) -> (n, vtype_of_sqltype schema t)) c.Ast.attributes)

(* Create a catalog with one (empty) table per class extension. *)
let to_catalog (schema : Ast.schema) : Njq_adl.Catalog.t =
  let cat = Njq_adl.Catalog.create () in
  List.iter
    (fun c ->
      Njq_adl.Catalog.add_table cat ~name:c.Ast.extent ~row_type:(row_type schema c) [])
    schema;
  cat

(* The paper's running supplier-part-delivery schema (Section 2), used by
   examples, tests and the workload generator. *)
let supplier_part_source = {|
class Part with extension PART attributes
  pname : string,
  price : int,
  color : string
end

class Supplier with extension SUPPLIER attributes
  sname : string,
  parts_supplied : { Part }
end

class Delivery with extension DELIVERY attributes
  supplier : Supplier,
  supply : { (part : Part, quantity : int) },
  date : date
end
|}

let supplier_part () = Parser.parse_schema supplier_part_source
