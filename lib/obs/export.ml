(* Exporters for collected spans: a plain JSON array for tooling, and
   Chrome's [trace_event] format so a trace file drops straight into
   chrome://tracing or Perfetto. *)

let attr_to_json : Span.attr -> Json.t = function
  | Span.ABool b -> Json.Bool b
  | Span.AInt n -> Json.Int n
  | Span.AFloat f -> Json.Float f
  | Span.AStr s -> Json.Str s

let attrs_to_json attrs =
  Json.Obj (List.rev_map (fun (k, v) -> (k, attr_to_json v)) attrs)

let span_to_json (s : Span.span) =
  let base =
    [
      ("id", Json.Int s.id);
      ("name", Json.Str s.name);
      ("depth", Json.Int s.depth);
      ("domain", Json.Int s.domain);
      ("start_ns", Json.Int s.start_ns);
      ("duration_ns", Json.Int (Span.duration_ns s));
      ("cpu_s", Json.Float (Span.duration_cpu s));
    ]
  in
  let parent =
    match s.parent with
    | None -> []
    | Some p -> [ ("parent", Json.Int p) ]
  in
  let attrs =
    match s.attrs with [] -> [] | _ -> [ ("attrs", attrs_to_json s.attrs) ]
  in
  Json.Obj (base @ parent @ attrs)

let spans_to_json spans = Json.List (List.map span_to_json spans)

(* Chrome trace_event: complete ("X") events with microsecond timestamps
   relative to the first span, one process.  Each span's recording domain
   becomes the thread lane ([tid]), so the main pipeline renders as one
   track and every pool domain's task spans get their own. *)
let chrome_trace spans =
  let origin =
    match spans with [] -> 0 | (s : Span.span) :: _ -> s.start_ns
  in
  let event (s : Span.span) =
    let fields =
      [
        ("name", Json.Str s.name);
        ("cat", Json.Str "njq");
        ("ph", Json.Str "X");
        ("ts", Json.Float (Clock.ns_to_us (s.start_ns - origin)));
        ("dur", Json.Float (Clock.ns_to_us (Span.duration_ns s)));
        ("pid", Json.Int 1);
        ("tid", Json.Int s.domain);
      ]
    in
    let args =
      match s.attrs with [] -> [] | _ -> [ ("args", attrs_to_json s.attrs) ]
    in
    Json.Obj (fields @ args)
  in
  Json.Obj [ ("traceEvents", Json.List (List.map event spans)) ]

let write_chrome_trace path spans =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (Json.to_string ~pretty:true (chrome_trace spans)))
