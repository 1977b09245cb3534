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

(* Minimal extraction — enough to pull "id" and "variants" out of each
   experiment without depending on the library: find every experiment
   object's id string and variant-name strings in order.  The baseline is
   machine-written by bench/main.ml, so the shapes are fixed. *)
let read_file path =
  match In_channel.with_open_text path In_channel.input_all with
  | s -> s
  | exception Sys_error msg -> fail "%s" msg

(* Scan [src] for ["key": "value"] and ["key": [ "v1", "v2", ... ]]
   occurrences of the given keys, preserving document order. *)
let baseline_pairs src =
  let n = String.length src in
  let pairs = ref [] in
  let cur_id = ref None in
  let rec skip_ws i = if i < n && (src.[i] = ' ' || src.[i] = '\n' || src.[i] = '\t' || src.[i] = '\r') then skip_ws (i + 1) else i in
  let parse_str i =
    (* i points at the opening quote *)
    let buf = Buffer.create 16 in
    let rec go i =
      if i >= n then fail "unterminated string in baseline"
      else
        match src.[i] with
        | '"' -> (Buffer.contents buf, i + 1)
        | '\\' when i + 1 < n ->
          Buffer.add_char buf src.[i + 1];
          go (i + 2)
        | c ->
          Buffer.add_char buf c;
          go (i + 1)
    in
    go (i + 1)
  in
  let looking_at i s =
    let l = String.length s in
    i + l <= n && String.equal (String.sub src i l) s
  in
  let i = ref 0 in
  while !i < n do
    if looking_at !i "\"id\"" then begin
      let j = skip_ws (!i + 4) in
      if j < n && src.[j] = ':' then begin
        let j = skip_ws (j + 1) in
        if j < n && src.[j] = '"' then begin
          let id, j' = parse_str j in
          cur_id := Some id;
          i := j'
        end
        else i := j
      end
      else i := j
    end
    else if looking_at !i "\"variants\"" then begin
      let j = skip_ws (!i + 10) in
      if j < n && src.[j] = ':' then begin
        let j = skip_ws (j + 1) in
        if j < n && src.[j] = '[' then begin
          let j = ref (j + 1) in
          let vs = ref [] in
          let stop = ref false in
          while not !stop do
            let k = skip_ws !j in
            if k >= n then fail "unterminated variants array in baseline"
            else if src.[k] = ']' then begin
              j := k + 1;
              stop := true
            end
            else if src.[k] = '"' then begin
              let v, k' = parse_str k in
              vs := v :: !vs;
              j := k'
            end
            else j := k + 1
          done;
          (match !cur_id with
           | Some id ->
             List.iter (fun v -> pairs := (id, v) :: !pairs) (List.rev !vs)
           | None -> fail "variants array before any \"id\" in baseline");
          i := !j
        end
        else i := j
      end
      else i := j
    end
    else incr i
  done;
  List.rev !pairs

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
  let committed = baseline_pairs (read_file baseline_path) in
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
