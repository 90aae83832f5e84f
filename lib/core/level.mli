(** Persist levels with provenance.

    The timing simulation assigns each atomic persist a {e level}: the
    length of the longest chain of persist ordering constraints ending
    at it.  With infinite bandwidth and banks, persists at the same
    level complete in the same "wave", so the maximum level is the
    persist ordering-constraint critical path (paper Section 7).

    A level value carries provenance: the set of persist nodes that
    produced it (the persists {e at} that level along the constraint
    chain).  Provenance serves two purposes:

    - a persist may coalesce with the open persist of its block even
      when ordered after that very persist, since merging a write into
      its own antecedent violates nothing — the exclusion test needs to
      know which dependences are attributable to the coalescing target;
    - when a persist is created, the persists it depends on can no
      longer accept coalesced writes ("the ability to coalesce is
      propagated through memory and thread state", Section 7) — the
      engine closes exactly the provenance nodes.

    Provenance is bounded: past {!max_provenance} nodes it degrades to
    "unknown", which is conservative for exclusion (the level always
    counts) and merely optimistic for closing.  It is held newest first
    (descending ids) with its size.  Ids are issued in increasing order,
    so the engine's common merge, a view absorbing the persist just
    created at its level, is one cons, and turns "unknown" at the cap
    exactly as a full union does. *)

type t = private {
  level : int;
  prov : int list;  (** distinct node ids, newest first; [] = unknown/none *)
  size : int;  (** the length of [prov]; a subset test checks it first *)
}

val max_provenance : int

val bottom : t
(** Level 0: no persist dependence. *)

val of_node : level:int -> node:int -> t

val merge : t -> t -> t
(** Pointwise maximum; provenance unions at equal levels (capped).  When
    the result equals an input, that input is returned. *)

val level : t -> int

val provenance : t -> int list
(** The provenance node ids in ascending order. *)

val excluding : node:int -> t -> int
(** [excluding ~node s] is the level of [s] unless it is fully
    attributable to [node], else 0: the dependence on [s] a persist
    would retain after coalescing into node [node]. *)
