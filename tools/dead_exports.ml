(* Dead-export check: list every [val] declared in the interfaces of the
   given library directories that no other compilation unit references.

     dead_exports ROOT DIR...

   ROOT is a dune build context (e.g. _build/default); every [.cmt] under
   it is read, so tests, benches and tools count as references (hooks
   such as [Rowcodec.live_spills] exist for the safety tests).  The
   exports are the [val]s of the [.cmti] files under ROOT/DIR.  A
   reference is a [Texp_ident] path [... M.v]; [M] is resolved through
   the unit's [module M = ...] and [let module M = ...] aliases and through
   dune's library name mangling ([Lib__M]).  A value used only inside its
   own unit is reached by a plain identifier, so it does not count.

   Prints one [Module.value] per line and exits 1 when there is any. *)

(* [Njq_engine__Exec] -> [Exec]. *)
let short name =
  match String.rindex_opt name '_' with
  | Some i when i > 0 && name.[i - 1] = '_' ->
    String.sub name (i + 1) (String.length name - i - 1)
  | _ -> name

(* Dune may relink an executable while the walk runs, so an entry
   [Sys.readdir] listed can be gone by the time it is examined: a vanished
   entry counts as absent. *)
let rec walk dir acc =
  Array.fold_left
    (fun acc entry ->
      let path = Filename.concat dir entry in
      match Sys.is_directory path with
      | true -> walk path acc
      | false -> path :: acc
      | exception Sys_error _ -> acc)
    acc
    (try Sys.readdir dir with Sys_error _ -> [||])

let annots path = (Cmt_format.read_cmt path).Cmt_format.cmt_annots

(* The (module, value) pairs one implementation references. *)
let references structure =
  let aliases = Hashtbl.create 16 in
  let resolve m =
    short (Option.value ~default:m (Hashtbl.find_opt aliases m))
  in
  let alias id (me : Typedtree.module_expr) =
    match id, me.mod_desc with
    | Some id, Typedtree.Tmod_ident (p, _) ->
      Hashtbl.replace aliases (Ident.name id) (Path.last p)
    | _ -> ()
  in
  let refs = ref [] in
  let default = Tast_iterator.default_iterator in
  let expr self (e : Typedtree.expression) =
    (match e.exp_desc with
     | Typedtree.Texp_ident (Path.Pdot (m, v), _, _) ->
       refs := (resolve (Path.last m), v) :: !refs
     | Typedtree.Texp_letmodule (id, _, _, me, _) -> alias id me
     | _ -> ());
    default.expr self e
  in
  let module_binding self (mb : Typedtree.module_binding) =
    alias mb.mb_id mb.mb_expr;
    default.module_binding self mb
  in
  let it = { default with expr; module_binding } in
  it.structure it structure;
  !refs

let () =
  match Array.to_list Sys.argv with
  | _ :: root :: (_ :: _ as dirs) ->
    let files = walk root [] in
    let used = Hashtbl.create 1024 in
    List.iter
      (fun path ->
        if Filename.check_suffix path ".cmt" then
          match annots path with
          | Cmt_format.Implementation s ->
            List.iter (fun r -> Hashtbl.replace used r ()) (references s)
          | _ -> ())
      files;
    let in_dirs path =
      List.exists
        (fun d ->
          String.starts_with ~prefix:(Filename.concat root d ^ "/") path)
        dirs
    in
    let dead =
      List.concat_map
        (fun path ->
          if Filename.check_suffix path ".cmti" && in_dirs path then
            let m = short (Filename.remove_extension (Filename.basename path)) in
            let m = String.capitalize_ascii m in
            match annots path with
            | Cmt_format.Interface s ->
              List.filter_map
                (fun (item : Typedtree.signature_item) ->
                  match item.sig_desc with
                  | Typedtree.Tsig_value vd
                    when not (Hashtbl.mem used (m, Ident.name vd.val_id)) ->
                    Some (m ^ "." ^ Ident.name vd.val_id)
                  | _ -> None)
                s.sig_items
            | _ -> []
          else [])
        files
    in
    List.iter print_endline (List.sort compare dead);
    if dead <> [] then exit 1
  | _ ->
    prerr_endline "usage: dead_exports ROOT DIR...";
    exit 2
