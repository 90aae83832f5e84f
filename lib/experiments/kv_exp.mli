(** KV-store experiment: persist critical path per operation for the
    hash-table workload ({!Kv}), swept over persistency models, thread
    counts and load factors with the Table 1 methodology.

    Each model runs the discipline the paper pairs it with
    ({!Kv.discipline_for}): strict = plain stores, epoch = undo log +
    two barriers per put, strand = undo log + barriers + one strand per
    operation.  With two or more threads the strand column should be
    strictly lowest: strands split the persist order by bucket group,
    so the critical path collapses to the hottest slot chain. *)

type metrics = {
  puts : int;
  gets : int;
  probes : int;
  events : int;
  persist_events : int;
  persist_ops : int;
  coalesced : int;
  critical_path : int;
  cp_per_put : float;
  cp_per_op : float;  (** critical path / (puts + gets) *)
}

val analyze_many :
  Kv.params -> (Kv.discipline * Persistency.Config.t) list -> metrics list
(** One {!metrics} per point (a discipline and the engine config that
    reads it), from one machine run of [params] (whose discipline is
    ignored) through {!Run.share}. *)

val analyze : Kv.params -> Persistency.Config.t -> metrics
(** [analyze_many] of the one point [(params.discipline, cfg)]. *)

val analyze_with_graph :
  Kv.params ->
  Persistency.Config.t ->
  metrics * Persistency.Persist_graph.t * Kv.layout
(** Same, with [record_graph] forced on — use small runs. *)

val kv_params :
  ?threads:int ->
  ?total_ops:int ->
  ?load:float ->
  ?seed:int ->
  ?dist:Workloads.Keygen.dist ->
  Persistency.Config.mode ->
  Kv.params
(** Experiment defaults: 1 thread, 4096 ops total, a get every 4th op,
    a 16x8 table at 50% load, seeded random scheduling, uniform keys.
    @raise Invalid_argument unless [total_ops] divides by [threads]. *)

val default_total_ops : int

type cell = {
  model : string;
  threads : int;
  load : float;
  key_space : int;
  cp_per_put : float;
  cp_per_op : float;
  probes_per_op : float;
  critical_path : int;
}

type t = {
  total_ops : int;
  cells : cell list;
  profile : Parallel.Pool.profile;
}

val sweep_threads : int list
(** 1, 2 and 4, the default [threads_list]; each splits [total_ops]. *)

val run :
  ?jobs:int ->
  ?total_ops:int ->
  ?threads_list:int list ->
  ?loads:float list ->
  ?seed:int ->
  ?dist:Workloads.Keygen.dist ->
  unit ->
  t
(** Sweep threads × loads × models; one {!cell} each, the models of a
    threads × load setting read from its one run.  Defaults:
    threads 1, 2 and 4, loads 25% and 50%, sequential ([jobs = 1]),
    uniform key popularity ([dist]); results are identical for any
    [jobs]. *)

val cell : t -> string -> int -> float -> cell option
val render : t -> string
val to_csv : t -> string
