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

type ('v, 'p, 'r, 'a) family = {
  name : string;  (** the [explore --workload] name *)
  variant_name : 'v -> string;  (** annotation or discipline name *)
  clean : Persistency.Config.mode -> Workloads.Queue.annotation -> 'v;
      (** the correct variant at a model point: its engine mode and the
          queue annotation it implies *)
  drop : 'v;
      (** the canonical [--buggy] variant: the correct one less the
          barrier or flush recovery needs *)
  params :
    threads:int -> depth:int -> seed:int -> Memsim.Machine.mconfig -> 'v -> 'p;
      (** explore-sized params (a TSO machine gets flush+sfence barriers) *)
  run : 'p -> Memsim.Machine.policy -> sink:(Memsim.Event.t -> unit) -> 'r;
  recover : 'p -> 'r -> bytes -> ('a, string) result;
      (** decode a crash image and check the structural invariant;
          applied to a run once, before its images *)
  image_capacity : 'r -> int;
  effect_of : 'p -> 'r -> tid:int -> index:int -> Dlin.effect_;
  dlin :
    ops:Dlin.op list -> cut:Persistency.Iset.t -> recovered:'a ->
    (unit, string) result;
}
(** A workload family: all DPOR exploration, failure injection and
    {!Dlin} need from it.  ['v] is the variant, ['p] the params, ['r]
    a run's result and ['a] the recovered abstract state. *)

type packed = Family : (_, _, _, _) family -> packed

val queue :
  ( Workloads.Queue.annotation, Workloads.Queue.params,
    Workloads.Queue.result, (int * int) list ) family

val kv : (Kv.discipline, Kv.params, Kv.result, (int * int64) list) family

val lockfree :
  ( Lockfree.Cas_set.discipline, Lockfree.Cas_set.params,
    Lockfree.Cas_set.result, int list ) family
(** {!Dlin.check_set} catches the silent truncation [Buggy_traverse] can
    produce, which the structural decoder alone cannot see. *)

val families : packed list
(** Every family, in [--workload] order: queue, kv, lockfree. *)

val instance :
  (_, 'p, _, _) family -> 'p -> Persistency.Config.t ->
  Memsim.Machine.policy -> instance
(** Run a family once under [policy] with graph recording forced on and
    a {!Dlin} history tee, and package the run for {!check}: partially
    applied to family, params and config, this is the [run] argument. *)

val lockfree_instance :
  Lockfree.Cas_set.params -> Persistency.Config.t ->
  Memsim.Machine.policy -> instance
(** [instance lockfree]. *)

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

val check_schedule :
  strategy:(Persistency.Persist_graph.t -> Recovery.strategy) ->
  Schedule.t ->
  (Memsim.Machine.policy -> instance) ->
  (Recovery.report, Recovery.failure) result
(** Re-execute one schedule deterministically ([Scripted] policy with
    the schedule's forced indices) and failure-inject it — how a
    persisted counter-example is validated in the test suite and by
    [persistsim explore --replay].  A schedule shorter than the run
    replays as a prefix, the rest taking the first runnable pick.
    @raise Bad_schedule when a decision's index is out of range, or
    when the run ends with decisions left over. *)
