(** Relaxing consistency vs. relaxing persistency (paper Section 5.1).

    Strict persistency couples persist order to the consistency model:
    under SC everything serializes; under TSO stores — and therefore
    persists — still serialize per thread; under RMO only fences order
    a thread, so persists reorder freely.  The paper argues a
    programmer "must rely either on relaxed consistency (with the
    concomitant challenges of correct program labelling)" or on relaxed
    persistency over SC.  This experiment quantifies the choice on the
    queue: the fence placement for strict/RMO is the same set of
    program points as the epoch annotation's barriers, so the remaining
    difference is purely which kind of relaxation delivers the
    concurrency. *)

type row = {
  label : string;
  threads : int;
  cp_per_insert : float;
  normalized : float;  (** at 500 ns persists, calibrated insn rate *)
}

type t = {
  rows : row list;
  profile : Parallel.Pool.profile;
      (** one cell per thread count: one run serves every point *)
}

val sweep_threads : int list
(** 1 and 8; each splits [total_inserts]. *)

val run :
  ?jobs:int ->
  ?total_inserts:int ->
  ?capacity_entries:int ->
  ?latency_ns:float ->
  unit ->
  t
(** CWL at {!sweep_threads} under: strict/SC (no annotations),
    strict/TSO and strict/RMO (epoch-point barriers read as fences),
    epoch/SC, and strand/SC.  [jobs] domains (default 1, results
    identical for any value). *)

val render : t -> string
