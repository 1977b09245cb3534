(* Seeded, linear catalogs for the benchmark, cached as NJQC files.

   Every extent holds [n] rows and every set-valued attribute a fixed
   average fanout, so rows and set references grow linearly in [n]
   ([Generator.scaled] alone grows fanout with [n]).  Generation and
   packing happen once per (build, seed, n), outside any timed region;
   the benchmark times only the NJQC load.  The cache directory is keyed
   by the digest of the running executable, so a build with another
   generator, codec or result never reads files an earlier build wrote. *)

open Njq_adl
module G = Njq_workload.Generator

let root = ".perfbench-data"

let ensure_dir d = if not (Sys.file_exists d) then Sys.mkdir d 0o755

(* This build's cache directory. *)
let dir =
  lazy
    (let d = Filename.concat root (Digest.to_hex (Digest.file Sys.executable_name)) in
     ensure_dir root;
     ensure_dir d;
     d)

let file name = Filename.concat (Lazy.force dir) name

let config ~seed n = { (G.scaled ~seed n) with G.fanout = 4; dangling_rate = 0.0 }

let path ~seed n =
  let p = file (Printf.sprintf "catalog-s%d-n%d.njqc" seed n) in
  if not (Sys.file_exists p) then begin
    let tmp = p ^ ".tmp" in
    Njq_engine.Rowcodec.save_catalog (G.catalog (config ~seed n)) tmp;
    Sys.rename tmp p
  end;
  p

let load p = Njq_engine.Rowcodec.load_catalog p

(* Rows and set references (elements of set-valued attributes) per
   extent; internal tables (the serving layer's ["__"] parameter tables)
   are left out. *)
let census cat =
  List.filter_map
    (fun name ->
      let refs =
        List.fold_left
          (fun acc row ->
            List.fold_left
              (fun acc (_, v) ->
                match v with Value.VSet _ -> acc + Value.set_size v | _ -> acc)
              acc (Value.as_tuple row))
          0 (Catalog.rows cat name)
      in
      if String.starts_with ~prefix:"__" name then None
      else Some (name, Catalog.cardinality cat name, refs))
    (Catalog.table_names cat)
