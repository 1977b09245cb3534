(** Exporters for collected spans: plain JSON and Chrome [trace_event]
    format (loadable in chrome://tracing / Perfetto). *)

(** One object per span: id, name, depth, start_ns, duration_ns, cpu_s,
    and optionally parent and attrs. *)
val spans_to_json : Span.span list -> Json.t

(** [{"traceEvents": [...]}] with complete ("X") events, microsecond
    timestamps relative to the first span. *)
val chrome_trace : Span.span list -> Json.t

val write_chrome_trace : string -> Span.span list -> unit
