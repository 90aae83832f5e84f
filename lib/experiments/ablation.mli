(** Ablations of design choices the paper discusses in prose
    (DESIGN.md A1–A5).

    - {b A1 TSO conflicts}: BPFS detects conflicts by recording the
      last thread to persist to each line, so it misses races whose
      first access is a load and enforces TSO rather than SC conflict
      ordering (Section 5.2).
    - {b A2 persistent-space-only conflicts}: BPFS orders persists only
      on conflicts to the persistent address space; tracking volatile
      conflicts too is what lets volatile locks order persists across
      epochs.
    - {b A3 finite persist buffers}: the critical-path methodology
      assumes unbounded buffering (Section 3); this ablation bounds
      in-flight persists and shows the throughput recovered as depth
      grows.
    - {b A4 coalescing}: persist coalescing on/off.
    - {b A5 queue capacity}: data-segment reuse is what bounds strand
      persistency's coalescing, so its critical path scales with
      1/capacity. *)

type comparison = {
  label : string;
  baseline : float;
  variant : float;
}

(** Every sweep below runs its cells through {!Parallel.Pool}: [jobs]
    sets the domain count (default 1 = sequential; results identical
    for any value) and [on_profile] receives the sweep timing (the CLI
    prints it as the sweep-profile footer). *)

val comparison_threads : int
(** 4, the default [threads] of {!conflicts}. *)

type conflicts = {
  tso : comparison list;
      (** A1: SC conflicts (baseline) vs TSO conflicts (variant) *)
  spaces : comparison list;
      (** A2: both-spaces conflicts (baseline) vs persistent-only
          (variant) *)
}

val conflicts :
  ?jobs:int -> ?on_profile:(Parallel.Pool.profile -> unit) ->
  ?threads:int -> ?total_inserts:int -> unit -> conflicts
(** cp/insert for the epoch-model points on both queue designs: one
    cell per point, whose one run is analyzed under the baseline and
    both variants. *)

val coalescing :
  ?jobs:int -> ?on_profile:(Parallel.Pool.profile -> unit) ->
  ?total_inserts:int -> unit -> comparison list
(** cp/insert with coalescing (baseline) vs without (variant), per
    model, CWL 1 thread; both from the model's one run. *)

type graphs
(** The recorded persist graph of each Fig3 model's CWL/1T run, read by
    both {!buffer_depth} and {!persist_sync}. *)

val model_graphs :
  ?jobs:int -> ?on_profile:(Parallel.Pool.profile -> unit) ->
  ?total_inserts:int -> unit -> graphs
(** One graph-recording cell per model; 2000 inserts by default. *)

type buffer_point = {
  depth : int;
  by_model : (string * float) list;  (** model -> inserts/s *)
}

val buffer_depth :
  ?depths:int list -> ?latency_ns:float -> graphs -> buffer_point list
(** Drain-simulated throughput of CWL/1T per persist-buffer depth. *)

type sync_point = {
  sync_every : int option;  (** [None] = never sync *)
  by_model : (string * float) list;  (** model -> inserts/s *)
}

val persist_sync :
  ?intervals:int option list -> ?latency_ns:float -> graphs -> sync_point list
(** Buffered persistency with persist sync (paper Section 4.1): a sync
    after every n-th insert stalls execution until outstanding persists
    drain — the cost of making each insert externally durable before
    acknowledging it. *)

val render_sync : sync_point list -> string

val capacity :
  ?jobs:int -> ?on_profile:(Parallel.Pool.profile -> unit) ->
  ?capacities:int list -> ?total_inserts:int -> unit -> (int * float) list
(** Strand cp/insert per data-segment capacity (entries). *)

val render_comparisons : title:string -> comparison list -> string
val render_buffer : buffer_point list -> string
val render_capacity : (int * float) list -> string
