(** The CWL queue under epoch persistency on an SC vs an x86-TSO
    machine ({!Memsim.Machine.model}): same workload, same annotation,
    the machine model as the swept variable.  TSO's store buffers move
    persists to drain time; per-thread FIFO drains keep the epoch
    ordering intact, so persist counts match and the critical path
    stays in the same regime. *)

type row = {
  machine : Memsim.Machine.model;
  threads : int;
  inserts : int;
  persist_events : int;
  persist_ops : int;
  cp_per_insert : float;
}

type t = {
  rows : row list;
  profile : Parallel.Pool.profile;
}

val sweep_threads : int list
(** 1, 2 and 8; each splits [total_inserts]. *)

val run : ?jobs:int -> ?total_inserts:int -> ?capacity_entries:int -> unit -> t
(** Sweep machine model {SC, TSO} x {!sweep_threads}. *)

val render : t -> string
