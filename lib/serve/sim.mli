(** The served KV: sharded front-end + group-commit batching over
    {!Kv_group}, driven by the open-loop stream from {!Loadgen}.

    Requests route to [shards] independent shards by a key hash; each
    shard owns a bounded request queue, its own simulated machine and
    persistency engine, and a group-commit store.  The batcher is
    greedy: whenever the shard is free it seals up to [batch] queued
    requests into one commit (single persist-barrier pair for the whole
    batch).  The queue advances in {e persist-critical-path units}: a
    batch's service time is the growth of the shard's persist critical
    path while executing it, so everything the report measures —
    latency percentiles, shed counts, throughput — is persist-bound by
    construction, the paper's claim made servable.

    Requests that arrive to a full queue are shed (open-loop overload
    does not block the generator).  Reads complete when their batch
    starts service (volatile image); writes when their batch's persists
    are on the critical path. *)

type model = {
  label : string;
  mode : Persistency.Config.mode;
  discipline : Kv_group.discipline;
}

val strict_model : model
val epoch_model : model
val strand_model : model

val buggy_model : model
(** [Kv_group.Buggy_seal] under the epoch engine — for demonstrating
    that failure injection ({!Check.Driver.group_instance}) catches the
    missing slots -> marker barrier. *)

val models : model list
(** strict, epoch, strand. *)

type params = {
  model : model;
  shards : int;
  batch : int;  (** max operations sealed per group commit *)
  queue_cap : int;  (** per-shard queue bound; overflow is shed *)
  group_size : int;  (** slots per bucket group in each shard *)
  load : Loadgen.params;
  record_graph : bool;
      (** keep per-shard persist graphs, for failure injection *)
}

val default_params : params
(** Epoch model, 2 shards, batch 8, queue 256, {!Loadgen.default_params}. *)

val validate : params -> unit

type shard_result = {
  shard : int;
  served : int;
  shed : int;
  puts : int;
  gets : int;
  batches : int;
  fill_sum : int;
  critical_path : int;
  makespan : float;
  probes : int;
  events : int;
  graph : Persistency.Persist_graph.t option;
  layout : Kv_group.layout;
  put_batches : Kv_group.put list list;
}

type report = {
  params : params;
  served : int;
  shed : int;
  puts : int;
  gets : int;
  batches : int;
  mean_fill : float;  (** requests per committed batch *)
  cp_total : int;  (** sum of shard persist critical paths *)
  cp_per_put : float;
      (** persist-barrier cost per put — the amortization metric: ~2
          epochs / batch-fill under group commit, flat under strict *)
  cp_per_op : float;
  lat_mean : float;
  lat_p50 : float;  (** persist-bound request latency percentiles *)
  lat_p95 : float;
  lat_p99 : float;
  lat_max : float;
  makespan : float;  (** last shard-free instant, persist units *)
  throughput : float;  (** served requests per persist unit *)
  shard_results : shard_result list;
}

val run : params -> report
(** Deterministic: equal params give equal reports (the simulation has
    no wall-clock input). *)
