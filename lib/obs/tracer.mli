(** Span tracer with Chrome trace-event export.

    Records begin/end ("B"/"E") and instant ("i") events into a
    process-wide buffer and writes them as Chrome trace-event JSON,
    loadable in Perfetto or [chrome://tracing].  The [tid] of every
    event is the recording OCaml domain's id, so spans recorded inside
    pool workers lay the sweep out as a per-domain timeline — which
    domain took which cell is directly visible.

    Disabled (the default), {!begin_span}/{!end_span}/{!with_span} are
    a boolean load and a branch; call sites that would build a span
    name eagerly should guard on {!enabled}.  Enable before spawning
    domains; recording is mutex-protected and domain-safe. *)

val enabled : unit -> bool

val enable : unit -> unit

val clear : unit -> unit
(** Disable and drop all recorded events — for tests. *)

val begin_span : ?cat:string -> ?args:(string * string) list -> string -> unit

val end_span : ?cat:string -> ?args:(string * string) list -> string -> unit
(** ['E'] events may carry args too — {!Perfscope.with_span} attaches
    the span's GC delta to the closing event. *)

val with_span :
  ?cat:string -> ?args:(string * string) list -> string -> (unit -> 'a) -> 'a
(** Balanced even when the thunk raises. *)

val instant : ?cat:string -> ?args:(string * string) list -> string -> unit

val event_count : unit -> int

val to_json : unit -> Json.t
(** [{"traceEvents": [...], "displayTimeUnit": "ms"}]; timestamps are
    microseconds since {!enable}. *)

val write_file : string -> unit
