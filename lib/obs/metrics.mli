(** Structured metrics registry.

    Libraries declare named instruments — monotonic counters, running
    maxima, fixed-bucket histograms — against a registry (usually
    {!default}) at module initialization; the instrumented code updates
    them unconditionally.  A registry starts {e disabled}: every update
    is a single boolean load and branch, so instrumentation stays in
    the hot paths at zero cost.  Enabling (the CLI's [--metrics-out],
    [METRICS_OUT] in the bench harness) turns updates into atomic
    operations, safe against concurrent worker domains; {!to_json}
    then dumps every registered instrument.

    Instrument creation is idempotent by name (the same name returns
    the same instrument) but not domain-safe — declare instruments at
    module initialization, before domains are spawned. *)

type registry

val create : unit -> registry

val default : registry
(** The process-wide registry every built-in instrument registers
    into. *)

val set_enabled : registry -> bool -> unit
val enabled : registry -> bool

val reset : registry -> unit
(** Zero every instrument (counts, sums, maxima) — for tests. *)

(** {1 Counters} *)

type counter

val counter : registry -> string -> counter
(** @raise Invalid_argument when the name exists as another type. *)

val incr : counter -> unit
val add : counter -> int -> unit
val counter_value : counter -> int

(** {1 Running maxima} *)

type gauge

val gauge_max : registry -> string -> gauge

val observe_max : gauge -> float -> unit
(** Keep the largest value observed. *)

val gauge_value : gauge -> float
(** 0 when nothing was observed. *)

(** {1 Fixed-bucket histograms} *)

type histogram

val histogram : registry -> ?buckets:float array -> string -> histogram
(** [buckets] are inclusive upper bounds, strictly ascending; an
    implicit overflow bucket catches the rest.  Default:
    {!pow2_buckets}[ 13] (1, 2, 4, … 4096).
    @raise Invalid_argument on empty or non-ascending buckets, or when
    the name exists with different buckets or as another type. *)

val observe : histogram -> float -> unit

val pow2_buckets : int -> float array
(** [pow2_buckets n] = [| 1; 2; 4; …; 2^(n-1) |]. *)

val histogram_count : histogram -> int
val histogram_sum : histogram -> float

val histogram_buckets : histogram -> (float * int) list
(** (upper bound, count) pairs in bound order; the overflow bucket is
    last with bound [infinity].  Counts are per bucket, not
    cumulative. *)

val histogram_samples : histogram -> float list
(** The raw observations behind the exact percentiles: the first 4096
    values observed, in observation order (later observations update
    only the buckets).  Empty until something was observed. *)

val histogram_tail_count : histogram -> int
(** How many observations {!histogram_samples} holds: the count, up to
    4096.  Below the count, the percentiles cover only the earliest
    observations, so they depend on the order observations arrived. *)

val histogram_percentile : histogram -> float -> float option
(** Exact nearest-rank percentile (via {!Pstats.Summary.percentile})
    over {!histogram_samples}; [None] when nothing was observed. *)

(** {1 Export} *)

val to_json : registry -> Json.t
(** [{"metrics": [...]}], instruments sorted by name.  Counters carry
    ["value"]; maxima ["value"]; histograms ["count"],
    ["tail_count"] (the observations behind p95/p99: below ["count"]
    when the window truncated them), ["sum"], ["p95"]/["p99"] (exact
    tails over the raw-sample window, [null] when empty) and
    ["buckets"] (objects with ["le"] — [null] for overflow — and
    ["count"]). *)

val dump_file : registry -> string -> unit
