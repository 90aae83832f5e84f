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

val analyze : Workloads.Queue.params -> Persistency.Config.t -> metrics

val analyze_with_graph :
  Workloads.Queue.params ->
  Persistency.Config.t ->
  metrics * Persistency.Persist_graph.t * Workloads.Queue.layout
(** Same, with [record_graph] forced on — use small runs. *)

val analyze_many :
  Workloads.Queue.params -> Persistency.Config.t list -> metrics list
(** [List.map (analyze params) cfgs] from one machine run: the trace
    depends on [params] alone, so a sweep cell is one run, analyzed
    under every engine config that reads it. *)

val graphs :
  Workloads.Queue.params ->
  Persistency.Config.t list ->
  Persistency.Persist_graph.t list
(** The persist graph per config, from one run ([record_graph] forced
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
