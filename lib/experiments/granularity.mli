(** Figures 4 and 5 — persist critical path per insert for Copy While
    Locked with one thread, under strict and epoch persistency, as a
    granularity parameter sweeps 8–256 bytes:

    - {b Figure 4} varies {e atomic persist granularity}: larger atomic
      persists let strict persistency coalesce adjacent entry words, so
      its critical path falls toward epoch persistency's, which is
      already insensitive (entire entries persist concurrently).
    - {b Figure 5} varies {e tracking granularity}: coarse conflict
      tracking induces persistent false sharing; strict persistency is
      unaffected (already serialized) while epoch persistency regains
      the constraints relaxation had removed. *)

type which =
  | Atomic_persist  (** Figure 4 *)
  | Tracking  (** Figure 5 *)

type point = {
  gran : int;
  by_model : (string * float) list;  (** model -> critical path/insert *)
}

type t = {
  which : which;
  points : point list;
  profile : Parallel.Pool.profile;
      (** one cell: one run, analyzed under every model at every
          granularity *)
}

val run :
  ?jobs:int ->
  ?total_inserts:int ->
  ?capacity_entries:int ->
  ?grans:int list ->
  which ->
  t
(** Default granularities: 8, 16, 32, 64, 128, 256 bytes; [jobs]
    domains for the sweep (default 1, results identical for any
    value). *)

val render : t -> string
val to_csv : t -> string

val value : t -> gran:int -> model:string -> float option
