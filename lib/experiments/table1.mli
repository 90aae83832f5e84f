(** Table 1 — "Relaxed Persistency Performance": persist-bound insert
    rate normalized to instruction execution rate, for both queue
    designs, all four model points, one and eight threads, at a given
    persist latency (500 ns in the paper). *)

type cell = {
  design : Workloads.Queue.design;
  model : string;
  threads : int;
  cp_per_insert : float;
  normalized : float;  (** persist-bound rate / instruction rate *)
  compute_bound : bool;  (** normalized >= 1: runs at native speed *)
}

type t = {
  latency_ns : float;
  insn_ns : Workloads.Queue.design -> int -> float;
  cells : cell list;
  profile : Parallel.Pool.profile;
      (** one cell per design×threads: its one run serves every model *)
}

val sweep_threads : int list
(** 1 and 8, the default [threads_list]; each splits [total_inserts]. *)

val run :
  ?jobs:int ->
  ?total_inserts:int ->
  ?capacity_entries:int ->
  ?latency_ns:float ->
  ?insn_ns:(Workloads.Queue.design -> int -> float) ->
  ?threads_list:int list ->
  unit ->
  t
(** Defaults: experiment defaults from {!Run}, 500 ns persists,
    calibrated instruction costs from {!Calibrate.default_insn_ns},
    threads 1 and 8, sequential sweep ([jobs = 1]); results are
    identical for any [jobs]. *)

val cell : t -> Workloads.Queue.design -> string -> int -> cell option

val render : t -> string
(** ASCII table shaped like the paper's Table 1 (bold = [*...*]). *)

val to_csv : t -> string
