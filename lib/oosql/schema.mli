(** Logical database design (paper Section 3): mapping OOSQL class
    definitions to ADL types and catalog tables.  Each class extension
    becomes a table whose rows carry an implicit [oid] attribute; class
    references become typed oid pointers into the referenced extent. *)

exception Schema_error of string

val find_class : Ast.schema -> string -> Ast.class_def

(** Row type of a class's extent: declared attributes plus [oid].  Rejects
    classes declaring a reserved [oid] attribute. *)
val row_type : Ast.schema -> Ast.class_def -> Njq_adl.Vtype.t

(** A catalog with one empty table per class extension. *)
val to_catalog : Ast.schema -> Njq_adl.Catalog.t

val supplier_part : unit -> Ast.schema
