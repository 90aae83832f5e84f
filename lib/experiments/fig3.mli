(** Figure 3 — "Persist Latency": achievable insert rate of Copy While
    Locked with one thread as persist latency sweeps 10 ns – 100 µs
    (log scale), for strict, epoch and strand persistency.  All models
    start compute-bound; each becomes persist-bound at its break-even
    latency (paper: ≈17 ns strict, ≈119 ns epoch, ≈6 µs strand) and
    throughput then decays hyperbolically. *)

type series = {
  model : string;
  cp_per_insert : float;
  break_even_ns : float;
  rates : (float * float) list;  (** (latency ns, inserts/s) *)
}

type t = {
  insn_ns : float;
  latencies_ns : float list;
  series : series list;
  profile : Parallel.Pool.profile;
      (** one cell: CWL at one thread, one run for every model *)
}

val run :
  ?jobs:int ->
  ?total_inserts:int ->
  ?capacity_entries:int ->
  ?insn_ns:float ->
  ?latencies_ns:float list ->
  unit ->
  t
(** Default latency grid: log-spaced 10 ns – 100 µs.  [jobs] is the
    domain count for the sweep (default 1 = sequential); results are
    identical for any value. *)

val render : t -> string
val to_csv : t -> string
