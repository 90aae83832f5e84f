(** Served-KV experiment: the group-commit amortization curve under
    open-loop load ({!Serve.Sim}), swept over persistency models, shard
    counts and batch sizes.

    The headline column is cp/put — persist-barrier cost per write in
    persist-critical-path units.  Under epoch-style group commit it
    falls as ~2/batch-fill (one record->slot barrier pair covers the
    whole batch); under strict it stays flat (every persist is ordered
    regardless of batching); strand sits at or below epoch because
    independent strands persist concurrently.  The latency and shed
    columns show the queueing consequence: at batch 1 an overloaded
    shard sheds and the tail explodes, and batching buys the capacity
    back. *)

type cell = {
  model : string;
  shards : int;
  batch : int;
  served : int;
  shed : int;
  mean_fill : float;  (** requests per committed batch *)
  cp_per_put : float;  (** the amortization metric *)
  cp_per_op : float;
  lat_p50 : float;
  lat_p95 : float;
  lat_p99 : float;
  throughput : float;  (** served requests per persist unit *)
}

type t = {
  requests : int;
  cells : cell list;
  profile : Parallel.Pool.profile;
}

val serve_params :
  ?requests:int ->
  ?clients:int ->
  ?rate:float ->
  ?read_pct:int ->
  ?dist:Workloads.Keygen.dist ->
  ?key_space:int ->
  ?burst:Serve.Loadgen.burst ->
  ?seed:int ->
  ?queue_cap:int ->
  ?group_size:int ->
  shards:int ->
  batch:int ->
  Serve.Sim.model ->
  Serve.Sim.params
(** Experiment defaults: 4096 requests from 2048 clients at 96/unit,
    25% reads, Zipf 0.99 over 512 keys, queue 256 — sized to overload a
    single unbatched shard so amortization is visible. *)

val run :
  ?jobs:int ->
  ?requests:int ->
  ?clients:int ->
  ?rate:float ->
  ?read_pct:int ->
  ?dist:Workloads.Keygen.dist ->
  ?key_space:int ->
  ?burst:Serve.Loadgen.burst ->
  ?seed:int ->
  ?shards_list:int list ->
  ?batches:int list ->
  unit ->
  t
(** Sweep shards × batches × models; one {!cell} each.  Defaults:
    shards 1, 2 and 4, batches 1, 8 and 32, sequential ([jobs = 1]);
    results are identical for any [jobs]. *)

val cell : t -> string -> int -> int -> cell option
(** [cell t model shards batch]. *)

val render : t -> string
val to_csv : t -> string
