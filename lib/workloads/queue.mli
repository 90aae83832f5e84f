(** Thread-safe persistent queues (paper Section 6, Algorithm 1).

    Two designs over a circular persistent buffer with a persistent
    head pointer:

    - {b Copy While Locked} (CWL): one lock serializes inserts; each
      insert persists the entry (length + payload) into the data
      segment, then advances the head pointer.
    - {b Two-Lock Concurrent} (2LC): a reserve lock allocates data
      segment space, the copy proceeds outside any lock (so copies from
      different threads persist concurrently), and an update lock plus
      a volatile insert list publish head updates in reservation order
      to avoid holes.

    Recovery for both: an entry is valid iff the persisted head pointer
    encompasses its portion of the data segment, so persists to the
    head must follow the entry's data persists and occur in insert
    order (head persists may coalesce).

    Every insert is one fully annotated program: each persist barrier
    and new-strand call site is named ({!sites}), and an annotation is
    the set of sites it enables.  [Epoch] brackets lock operations with
    persist barriers (the conservative placement that avoids
    persist-epoch races), [Racing] drops the barriers marked "removing
    allows race" and relies on strong persist atomicity of the head
    pointer, [Strand] adds [NewStrand] at the top of each insert, and
    [Buggy_epoch] omits the data→head barrier of line 8 — a
    deliberately incorrect program used to demonstrate that the recovery
    checker catches real bugs. *)

type design =
  | Cwl
  | Tlc
  | Fang
      (** the SCM log of Fang et al. (paper Section 6, related design):
          one lock serializes inserts; each record embeds a trailing
          seal word (its sequence number) persisted after the payload,
          so recovery scans records until the first unsealed one — no
          separate head pointer.  The paper notes its persists are
          ordered by the critical section and it "achieves similar
          persist throughput" to Copy While Locked under these models *)

type annotation =
  | Unannotated  (** for strict persistency: no barriers are needed *)
  | Epoch
  | Racing
  | Strand
  | Buggy_epoch

type params = {
  design : design;
  annotation : annotation;
  threads : int;
  inserts_per_thread : int;
  entry_size : int;  (** payload bytes; paper uses 100 *)
  capacity_entries : int;  (** data segment capacity, in entries *)
  seed : int;
  policy : Memsim.Machine.policy;
  machine : Memsim.Machine.model;
      (** machine consistency model; under [Tso] stores sit in per-thread
          store buffers and persist in drain order *)
  persistence : Memsim.Machine.persistence;
      (** [Pbuffered] drains flushed lines asynchronously from the
          persistence buffer instead of committing them at the fence *)
  barrier : Memsim.Machine.barrier_impl;
      (** how {!Memsim.Machine.persist_barrier} is realized:
          [Pbarrier] (the paper's atomic barrier) or [Flush_sfence]
          (the Px86 flush+sfence annotation, the only form x86-TSO
          actually offers) *)
}

type layout = {
  head_addr : int;  (** persistent 8-byte head pointer (unused by
                        [Fang], which has no head) *)
  data_addr : int;  (** persistent data segment base *)
  data_bytes : int;
  slot : int;  (** bytes consumed per insert: length word + payload
                   (word-aligned), plus a seal word for [Fang] *)
}

type result = {
  layout : layout;
  inserts : int;  (** total completed inserts *)
  events : int;  (** memory events emitted *)
  insert_order : int list;  (** thread id per insert, in commit order —
                                the paper's insert-distance validation
                                input (Section 7) *)
}

val sites : annotation -> Memsim.Machine.site list
(** The barrier and new-strand call sites an annotation enables, across
    the three designs: CWL and Fang issue [before-lock], [after-lock],
    [strand], [data-head], [after-head] and [after-unlock]; 2LC issues
    [before-reserve], [after-reserve], [before-reserve-unlock],
    [after-reserve-unlock], [strand], [copy-done], [after-update],
    [data-head], [before-update-unlock] and [after-update-unlock]. *)

val run :
  ?sites:Memsim.Machine.site list ->
  params ->
  sink:(Memsim.Event.t -> unit) ->
  result
(** Build the queue, run [threads] inserter threads to completion and
    stream every event to [sink].  The program issues the barriers and
    new-strands of [sites] (default: [sites params.annotation]).
    @raise Invalid_argument on invalid parameters. *)

val design_name : design -> string
val annotation_name : annotation -> string
