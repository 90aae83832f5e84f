(** NVRAM write-endurance statistics (paper Sections 2.1 and 3).

    NVRAM cells tolerate a limited number of writes; the paper notes
    that persist coalescing "reduces the total number of NVRAM writes,
    which may be important for NVRAM devices that are subject to wear".
    This module counts the writes the model actually issues — one per
    atomic persist per touched block — so the coalescing ablation can
    quantify that effect, and exposes the skew that wear-leveling
    hardware (e.g. start-gap) would have to absorb. *)

type t = {
  total_writes : int;  (** atomic persist x block pairs *)
  distinct_blocks : int;
  max_writes : int;  (** hottest block *)
  mean_writes : float;
  skew : float;  (** max / mean: 1.0 = perfectly even wear *)
}

val of_graph : ?gran:int -> Persistency.Persist_graph.t -> t
(** Count per-[gran]-byte-block writes over a persist dependence graph
    (default granularity 8 bytes, one count per node per block it
    touches). *)
