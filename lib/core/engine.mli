(** Persist-timing simulation (paper Section 7).

    The engine consumes an SC event trace and assigns every atomic
    persist a level — the length of the longest chain of persist
    ordering constraints ending at it — under one of the persistency
    models.  Assuming infinite NVRAM bandwidth and banks but a fixed
    persist latency, the maximum level is the {e persist ordering
    constraint critical path} that bounds persist throughput.

    Dependence propagation follows the paper's rules.  Every event [e]
    observes a dependence level [D(e)], the highest persist level
    ordered before [e] in persistent memory order:

    - per-thread: everything before the thread's last persist barrier
      (under strict persistency every event is implicitly followed by a
      barrier; under strand persistency [NewStrand] clears the thread's
      observed dependences);
    - per tracked block: a load observes the block's store level; a
      store or RMW observes both the store and the load level (the
      load-before-store conflicts that BPFS misses — disabled by
      {!Config.t.tso_conflicts});
    - conflicts are tracked in both address spaces unless
      {!Config.t.persistent_only_conflicts}.

    A persist is assigned [D + 1], or coalesces into the open persist
    of its atomic block when every dependence not attributable to that
    open persist is below the open persist's level (strong persist
    atomicity makes merging into one's own antecedent safe). *)

type t

val create : Config.t -> t

val observe : t -> Memsim.Event.t -> unit
(** Feed one event; also usable directly as a machine sink.
    @raise Invalid_argument, naming the event, when its thread id is
    negative or at least [2^16] (the machine's drain pseudo-thread
    range); thread ids index an array. *)

val observe_trace : t -> Memsim.Trace.t -> unit

val run : Config.t -> (sink:(Memsim.Event.t -> unit) -> 'r) -> t * 'r
(** [run cfg produce] feeds one workload run into a fresh engine:
    [produce ~sink] (e.g. [Workloads.Queue.run params]) emits its
    events into [sink], and [run] returns the engine with the run's
    result.  With {!Obs.Tracer} on, the trace is materialized so that
    trace generation and engine analysis are separate phase spans; the
    engine sees the same events either way. *)

val feed : (sink:(Memsim.Event.t -> unit) -> 'r) -> (Memsim.Event.t -> unit) -> 'r
(** [feed produce sink] is [produce ~sink], the way {!run} feeds its
    engine: with {!Obs.Tracer} on, the trace is materialized first, so
    that trace generation and analysis are separate phase spans.  A
    caller that fans one run out to several engines feeds through
    this. *)

val critical_path : t -> int
(** Maximum persist level assigned so far (0 when no persists). *)

val persist_events : t -> int
(** Persist-generating store/RMW events seen. *)

val persist_ops : t -> int
(** Atomic persists after coalescing. *)

val coalesced : t -> int
(** [persist_events - persist_ops]. *)

val events : t -> int
(** Total events consumed. *)

val label_count : t -> string -> int
(** Occurrences of [Label (_, name)] — e.g. queue inserts. *)

val cp_per_label : t -> string -> float
(** [critical_path / label_count], the paper's "persist critical path
    per insert" (Figures 4 and 5).  [nan] when the label is absent. *)

val graph : t -> Persist_graph.t option
(** The dependence graph, when [record_graph] was set.  Recording keeps
    every dependence frontier one-level reduced with
    {!Persist_graph.reduce} at accesses, fence commits and [Pdrain]s: a
    reduction costs the members' summed [deps] sizes and builds a new
    set only when it drops a member. *)

val node_of_persist_event : t -> int -> int
(** [node_of_persist_event t i] is the graph node id that the [i]-th
    persist event (0-based, in trace order) was assigned or coalesced
    into.  Only tracked when [record_graph] is set. *)

val config : t -> Config.t
