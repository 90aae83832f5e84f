(** NVRAM wear per persistency model (paper Sections 2.1 and 3).

    Counts the atomic NVRAM writes each model issues for the same
    workload, with and without persist coalescing — quantifying the
    paper's remark that coalescing "reduces the total number of NVRAM
    writes, which may be important for NVRAM devices that are subject
    to wear". *)

type row = {
  label : string;
  coalescing : Nvram.Wear.t;
  no_coalescing : Nvram.Wear.t;
}

type t = {
  rows : row list;
  profile : Parallel.Pool.profile;
      (** one cell: one run, every model with and without coalescing *)
}

val run : ?jobs:int -> ?total_inserts:int -> unit -> t
(** CWL, 1 thread, every model point; graph-recording runs, so the
    default scale is modest (2 000 inserts).  [jobs] domains (default
    1, results identical for any value). *)

val render : t -> string
