(* Guard against silent baseline drift: the perf-regression gate
   (json_check --baseline) compares per-(experiment, variant) rows, so a
   renamed or added bench variant that is not also regenerated into
   BENCH_baseline.json would simply stop being gated.  This checker reads
   the committed baseline and the harness's own "--list" enumeration
   ("id variant" lines on stdin) and refuses any mismatch in either
   direction, with a message telling the author to regenerate the
   baseline alongside the bench change.

   Usage: bench_main --list --scale N b14 b16 b17 b18 | baseline_check BASELINE *)

let fail fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("baseline_check: " ^ s);
      exit 1)
    fmt

let read_file path =
  match In_channel.with_open_text path In_channel.input_all with
  | s -> s
  | exception Sys_error msg -> fail "%s" msg

(* The (experiment id, variant) pairs of the baseline, in document order:
   [experiments[].id] with each name in its [variants]. *)
let baseline_pairs path =
  let module Json = Njq_obs.Json in
  let doc =
    match Json.of_string (read_file path) with
    | doc -> doc
    | exception Json.Parse_error msg -> fail "%s: %s" path msg
  in
  let experiments =
    match Json.member "experiments" doc with
    | Some (Json.List es) -> es
    | _ -> fail "%s: no \"experiments\" array" path
  in
  List.concat_map
    (fun e ->
      match Json.member "id" e, Json.member "variants" e with
      | Some (Json.Str id), Some (Json.List vs) ->
        List.map
          (function
            | Json.Str v -> (id, v)
            | _ -> fail "%s: experiment %s has a variant that is not a string"
                     path id)
          vs
      | _ ->
        fail "%s: an experiment lacks a string \"id\" or a \"variants\" list"
          path)
    experiments

let read_listing ic =
  let rec go acc =
    match In_channel.input_line ic with
    | None -> List.rev acc
    | Some line ->
      let line = String.trim line in
      if String.equal line "" then go acc
      else
        (match String.index_opt line ' ' with
         | Some sp ->
           let id = String.sub line 0 sp in
           let v = String.sub line (sp + 1) (String.length line - sp - 1) in
           go ((id, v) :: acc)
         | None -> fail "malformed listing line %S (want \"id variant\")" line)
  in
  go []

let () =
  let baseline_path =
    match Array.to_list Sys.argv with
    | [ _; p ] -> p
    | _ -> fail "usage: bench --list ... | baseline_check BASELINE.json"
  in
  let committed = baseline_pairs baseline_path in
  let live = read_listing In_channel.stdin in
  if live = [] then fail "empty variant listing on stdin";
  let show (id, v) = Printf.sprintf "%s/%s" id v in
  let missing = List.filter (fun p -> not (List.mem p committed)) live in
  let stale = List.filter (fun p -> not (List.mem p live)) committed in
  if missing <> [] || stale <> [] then begin
    List.iter
      (fun p ->
        Printf.eprintf
          "baseline_check: variant %s exists in the bench but not in %s\n"
          (show p) baseline_path)
      missing;
    List.iter
      (fun p ->
        Printf.eprintf
          "baseline_check: variant %s exists in %s but not in the bench\n"
          (show p) baseline_path)
      stale;
    fail
      "bench variants and %s disagree — regenerate the baseline (bench \
       --work-only --json ... then copy BENCH_engine.json) in the same change"
      baseline_path
  end;
  Printf.printf "baseline_check: %d variants match %s\n" (List.length live)
    baseline_path
