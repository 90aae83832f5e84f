(** Profiling hooks: per-span GC deltas, peak-RSS sampling, throughput
    gauges and an opt-in live-progress heartbeat.

    Two layers:

    - the {e measurement} layer ({!start}/{!finish}/{!measure}) always
      measures — perfbench uses it to time each round's wall clock and
      allocation;
    - the {e instrumentation} layer ({!with_span}, {!throughput},
      {!progress_start}) lives in hot paths (engine trace replay, pool
      sweep cells, DPOR exploration, recovery injection) and costs one
      or two boolean loads when both the default metrics registry and
      the tracer are disabled.

    An instrumented span accumulates its GC delta into the
    [gc.minor_words] / [gc.major_words] / [gc.promoted_words] /
    [gc.minor_collections] / [gc.major_collections] counters, keeps the
    [proc.peak_rss_kb] gauge current, and — when the tracer is on —
    closes its Chrome-trace span with the delta attached as arguments.

    The heartbeat prints interval-throttled progress lines to stderr
    ([label: done/total (pct) rate eta]) so 10⁸-event sweeps are
    observable in flight; it is disabled unless {!set_progress} (the
    CLI's [--progress], or [PROGRESS=1]) turned it on. *)

(** What one span observed.  Word counts are those of
    [Gc.quick_stat] deltas; all fields are non-negative. *)
type gc_delta = {
  wall_s : float;
  minor_words : float;
  major_words : float;  (** allocated directly in the major heap *)
  promoted_words : float;
  minor_collections : int;
  major_collections : int;
}

val alloc_words : gc_delta -> float
(** Total words allocated: minor + major - promoted (promoted words
    would otherwise be counted twice). *)

val peak_rss_kb : unit -> int
(** The process's high-water resident set size in kB ([VmHWM] from
    [/proc/self/status]); 0 when the proc file is unavailable. *)

(** {1 Measurement (always on)} *)

type span

val start : unit -> span
val finish : span -> gc_delta

val measure : (unit -> 'a) -> 'a * gc_delta
(** Runs the thunk between {!start} and {!finish}; measures even when
    the thunk raises (the exception propagates). *)

(** {1 Instrumentation (zero-cost when disabled)} *)

val enabled : unit -> bool
(** Whether the default metrics registry is live — guard span-name or
    argument construction on this (or on {!Tracer.enabled}). *)

val with_span :
  ?cat:string -> ?args:(string * string) list -> string -> (unit -> 'a) -> 'a
(** GC-accounted tracer span: a plain call of the thunk when both the
    registry and the tracer are off. *)

val throughput : Metrics.gauge -> items:int -> seconds:float -> unit
(** [observe_max] of [items / seconds] (0 when [seconds] is 0: a
    timer-granularity wall clock yields no meaningful rate) — the gauge
    keeps the best rate the process reached. *)

(** {1 Live progress heartbeat} *)

val set_progress : ?interval_s:float -> bool -> unit
(** Turn the stderr heartbeat on or off process-wide.  [interval_s]
    (default 1.0) throttles emission; 0 emits on every step (tests).
    Enable before spawning domains. *)

val progress_enabled : unit -> bool

type progress

val progress_start : ?total:int -> string -> progress
(** Begin a progress scope named [label].  With [total] the heartbeat
    shows percent-complete and an ETA extrapolated from the rate so
    far; without it, a running count and rate.  A disabled heartbeat
    returns an inert scope whose {!progress_step} is one load. *)

val progress_step : progress -> unit
(** One unit of work done.  Domain-safe; at most one line per interval
    is emitted no matter how many domains step. *)

val progress_finish : progress -> unit
(** Emit the final line (unthrottled) and close the scope. *)

val render_progress :
  label:string -> completed:int -> ?total:int -> elapsed_s:float -> unit ->
  string
(** The heartbeat line, as a pure function of its inputs — unit-tested
    directly.  ETA is [(total - completed) / rate]; it and the rate
    render as ["?"] until there is a nonzero rate. *)
