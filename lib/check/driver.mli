(** Cross-interleaving recovery checking: DPOR exploration with the
    {!Recovery} failure-injection checker run at every explored
    interleaving.

    Recovery verdicts are a function of the persist dependence graph,
    and trace-equivalent interleavings produce graphs with equal
    {!Persistency.Graph_export.fingerprint}s — so the driver checks
    recovery once per {e distinct} graph and skips duplicates, both
    across equivalent schedules the explorer still executed and across
    inequivalent schedules that happen to constrain persists
    identically (e.g. under strict persistency). *)

type instance = {
  graph : Persistency.Persist_graph.t;
      (** persist dependence graph of the run *)
  capacity : int;  (** persistent image size for failure injection *)
  observer : Recovery.cut_observer;
      (** the workload's recovery checker: structural invariant first,
          then the {!Dlin} durable-linearizability oracle against the
          run's operation history *)
}
(** What one workload execution hands the driver: everything
    {!Recovery.check_cuts} needs. *)

type report = {
  stats : Dpor.stats;
  distinct : int;  (** distinct persist-graph fingerprints seen *)
  checked : int;  (** recovery checks run (one per distinct graph) *)
  prefixes : int;  (** durable prefixes checked across all graphs *)
  failure : (Schedule.t * Recovery.failure) option;
      (** first counter-example: the replayable schedule and the
          unrecoverable crash state found on it *)
}

val check_run :
  strategy:(Persistency.Persist_graph.t -> Recovery.strategy) ->
  instance ->
  (Recovery.report, Recovery.failure) result
(** Failure-inject one run: walk the durable prefixes [strategy] picks
    for its graph and apply its observer to each, stopping at the first
    unrecoverable crash state.  The one failure-injection entry point:
    {!check} calls it once per distinct graph, {!check_schedule} on the
    replayed run, and single-run commands on an instance built with the
    workload's own policy. *)

val check :
  ?max_schedules:int ->
  strategy:(Persistency.Persist_graph.t -> Recovery.strategy) ->
  (Memsim.Machine.policy -> instance) ->
  report
(** [check ~strategy run] explores [run]'s interleavings
    ({!Dpor.explore}) and
    failure-injects every distinct persist graph.  [strategy] picks the
    prefix-walk strategy per graph — pass [Recovery.auto ~samples ~seed]
    partially applied, or [fun _ -> Exhaustive] for small fixed-size
    graphs.  The exploration stops at the first unrecoverable crash
    state and reports its schedule: when [stats.complete] is false, a
    [failure] means the search stopped there, and none means it hit
    [max_schedules]. *)

val queue_instance :
  Workloads.Queue.params ->
  Persistency.Config.t ->
  Memsim.Machine.policy ->
  instance
(** Run the persistent queue workload once under [policy] (the params'
    own policy is ignored), with graph recording forced on, and package
    the run for {!check}.  Partially applied to params and config, this
    is the [run] argument. *)

val kv_instance :
  Kv.params -> Persistency.Config.t -> Memsim.Machine.policy -> instance
(** Same for the KV store workload. *)

val lockfree_instance :
  Lockfree.Cas_set.params ->
  Persistency.Config.t ->
  Memsim.Machine.policy ->
  instance
(** Same for the lock-free CAS-set workload ({!Dlin.check_set} catches
    the silent truncation {!Lockfree.Cas_set.discipline.Buggy_traverse}
    can produce, which the structural decoder alone cannot see). *)

val group_instance :
  layout:Kv_group.layout ->
  batches:Kv_group.put list list ->
  Persistency.Persist_graph.t ->
  instance
(** A recorded group-commit shard ({!Kv_group}: its layout, committed
    put-batches and persist graph) packaged for {!check_run}.  The
    observer is {!Kv_recovery.check_group}: every crash image must
    recover to exactly the batch boundary its commit marker names. *)

exception Bad_schedule of string
(** A schedule that does not fit the run it replays; the message names
    the offending decision and how many decisions were consumed. *)

val replay : Schedule.t -> (Memsim.Machine.policy -> instance) -> instance
(** Re-execute one schedule deterministically ([Scripted] policy with
    the schedule's forced indices).  A schedule shorter than the run
    replays as a prefix, the rest taking the first runnable pick.
    @raise Bad_schedule when a decision's index is out of range, or
    when the run ends with decisions left over. *)

val check_schedule :
  strategy:(Persistency.Persist_graph.t -> Recovery.strategy) ->
  Schedule.t ->
  (Memsim.Machine.policy -> instance) ->
  (Recovery.report, Recovery.failure) result
(** {!replay} one schedule and failure-inject it — how a persisted
    counter-example is validated in the test suite and by
    [persistsim explore --replay].
    @raise Bad_schedule as {!replay} does. *)
