(** Persistency model configuration.

    A configuration selects one of the paper's three model classes and
    the measurement parameters of Section 7: the granularity at which
    persist ordering constraints propagate through memory (tracking
    granularity — coarse tracking introduces {e persistent false
    sharing}, Figure 5) and the granularity at which NVRAM persists are
    atomic and may coalesce (atomic persist granularity, Figure 4). *)

type mode =
  | Strict
      (** persistent memory order = volatile memory order: every event
          acts as an implicit persist barrier (Section 5.1) *)
  | Epoch
      (** persist barriers divide threads into epochs; conflicting
          accesses and strong persist atomicity order persists across
          threads (Section 5.2) *)
  | Strand
      (** [NewStrand] clears previously observed dependences; barriers
          order within a strand only (Section 5.3) *)

(** The volatile memory consistency model that {!mode.Strict}
    persistency couples to (Section 5.1: "relaxed consistency models,
    such as RMO, allow stores to reorder.  Using such models, it is
    possible for many persists from the same thread to occur in
    parallel").  Only meaningful under strict persistency; the relaxed
    persistency models are defined over SC in the paper. *)
type consistency =
  | Sc  (** program order orders everything *)
  | Tso
      (** store→load reordering allowed: a load is ordered only after
          earlier loads, RMWs and fences — but stores stay serialized,
          so persists from one thread still serialize *)
  | Rmo
      (** same-thread order only through memory fences (we reuse
          [Persist_barrier] events as fences) and same-address
          dependences *)

(** Px86 persist semantics of flushed lines (only meaningful for
    traces produced by a machine with the matching
    {!Memsim.Machine.persistence}). *)
type px86 =
  | Px86_sync
      (** a flushed line is durable once ordered by a fence: the
          fence's commit point fixes the durable frontier *)
  | Px86_buffered
      (** flushed lines persist asynchronously at their
          {!Memsim.Event.Pdrain} events; fences only order the
          persistence buffer *)

type t = {
  mode : mode;
  consistency : consistency;  (** used by [Strict] mode only *)
  track_gran : int;
      (** bytes; power of two, >= 8.  Granularity of conflict
          detection. *)
  persist_gran : int;
      (** bytes; power of two, >= 8.  Atomic persist size; coalescing
          window. *)
  coalescing : bool;  (** ablation A4: disable persist coalescing *)
  tso_conflicts : bool;
      (** ablation A1: reproduce BPFS conflict detection, which misses
          load-before-store races and hence enforces TSO rather than SC
          conflict ordering (Section 5.2) *)
  persistent_only_conflicts : bool;
      (** ablation A2: reproduce BPFS's restriction of conflict
          tracking to the persistent address space *)
  record_graph : bool;
      (** build the explicit persist dependence graph (needed by the
          recovery observer; costs memory) *)
  px86 : px86;
      (** buffered vs synchronous Px86 flush durability (order-only
          edges in the persist graph; levels are unaffected) *)
}

val mode_name : mode -> string
val mode_of_name : string -> mode option
val all_modes : mode list

val check_gran : string -> int -> unit
(** [check_gran what g] accepts what {!make} accepts: a power of two
    >= 8.  @raise Invalid_argument naming [what] otherwise. *)

val default_track_gran : int
(** The tracking granularity {!make} uses when none is given: 8 bytes. *)

val make :
  ?consistency:consistency ->
  ?track_gran:int ->
  ?persist_gran:int ->
  ?coalescing:bool ->
  ?tso_conflicts:bool ->
  ?persistent_only_conflicts:bool ->
  ?record_graph:bool ->
  ?px86:px86 ->
  mode ->
  t
(** Defaults: 8-byte tracking and persist granularity, coalescing on,
    SC conflicts in both address spaces, no graph, synchronous Px86.
    @raise Invalid_argument on granularities that are not powers of two
    or are smaller than 8. *)

val default : mode -> t
val pp : Format.formatter -> t -> unit
