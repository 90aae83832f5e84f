(** Shared experiment plumbing: run a queue workload, stream its trace
    into a persistency engine, and collect the metrics every
    table/figure consumes. *)

type metrics = {
  inserts : int;
  events : int;
  persist_events : int;
  persist_ops : int;
  coalesced : int;
  critical_path : int;
  cp_per_insert : float;
  insert_order : int list;
}

val share :
  ?graph:bool ->
  machine:Memsim.Machine.model ->
  barrier:Memsim.Machine.barrier_impl ->
  (sites:Memsim.Machine.site list -> sink:(Memsim.Event.t -> unit) -> 'r) ->
  (Memsim.Machine.site list * Persistency.Config.t) list ->
  Persistency.Engine.t list * 'r
(** [share ~machine ~barrier produce points] runs [produce] once, with
    the union of the points' site sets, and returns one engine per
    point, in order, each fed that run without the barrier and
    new-strand events of sites outside its own set: on an SC machine
    with [Pbarrier], each point's own run.  A single point runs exactly
    its own sites.  [graph] forces [record_graph] on.
    @raise Invalid_argument when the site sets differ and [machine] is
    not [Sc] or [barrier] is not [Pbarrier]. *)

val analyze_many :
  Workloads.Queue.params ->
  (Workloads.Queue.annotation * Persistency.Config.t) list ->
  metrics list
(** One {!metrics} per point (an annotation and the engine config that
    reads it), from one machine run of [params] (whose annotation is
    ignored) through {!share}. *)

val analyze : Workloads.Queue.params -> Persistency.Config.t -> metrics
(** [analyze_many] of the one point [(params.annotation, cfg)]. *)

val analyze_with_graph :
  Workloads.Queue.params ->
  Persistency.Config.t ->
  metrics * Persistency.Persist_graph.t * Workloads.Queue.layout
(** Same, with [record_graph] forced on — use small runs. *)

val graphs :
  Workloads.Queue.params ->
  (Workloads.Queue.annotation * Persistency.Config.t) list ->
  Persistency.Persist_graph.t list
(** The persist graph per point, from one run ([record_graph] forced
    on). *)

(** A "model point" of the evaluation: a persistency model together
    with the queue annotation the paper pairs it with. *)
type model_point = {
  label : string;
  mode : Persistency.Config.mode;
  annotation : Workloads.Queue.annotation;
}

val strict_point : model_point
val epoch_point : model_point
val racing_point : model_point
val strand_point : model_point

val paired : model_point -> Workloads.Queue.annotation * Persistency.Config.t
(** The point's annotation with its model's default engine config. *)

val per_point :
  ('p -> 'c list) -> 'p list -> ('c list -> 'r list) -> 'r list list
(** [per_point cfgs points analyze] is [analyze] of every point's
    configs, in order, its results regrouped per point. *)

val table1_models : model_point list
(** Strict, Epoch, Racing Epochs, Strand — the columns of Table 1. *)

val fig3_models : model_point list
(** Strict, Epoch, Strand — the series of Figure 3. *)

val queue_params :
  ?design:Workloads.Queue.design ->
  ?threads:int ->
  ?total_inserts:int ->
  ?capacity_entries:int ->
  ?seed:int ->
  ?machine:Memsim.Machine.model ->
  model_point ->
  Workloads.Queue.params
(** Experiment defaults: CWL, 1 thread, 20_000 inserts total, 24-entry
    data segment (chosen to reproduce Figure 3's strand break-even; the
    paper does not state its segment size — see EXPERIMENTS.md),
    100-byte entries, seeded random scheduling, SC machine, synchronous
    persistence and the paper's atomic persist barrier. *)

val default_total_inserts : int
val default_capacity : int

val cwl_1t :
  jobs:int ->
  ?total_inserts:int ->
  ?capacity_entries:int ->
  (Workloads.Queue.params -> 'a) ->
  'a * Parallel.Pool.profile
(** A sweep of one cell, the single-threaded CWL queue at the experiment
    defaults: [f] reads its one run under every point it needs. *)
