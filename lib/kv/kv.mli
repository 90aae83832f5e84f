(** Crash-consistent persistent key-value store workloads.

    An open-addressing hash table in persistent memory, written against
    the simulated-machine API, with one persistency {e discipline} per
    model of the paper.  The table is divided into fixed {e bucket
    groups} of [group_size] slots; a key hashes to a group and probes
    linearly inside it, under a per-group lock, so operations on
    different groups are fully independent — exactly the access pattern
    the paper's strand persistency is motivated by (Section 5.3): no
    mutual persist order is semantically required between them.

    A slot is three words: key, value, checksum(key, value).  A put
    writes an {e undo-log record} (slot index + the slot's previous
    triple, sealed Fang-style with the record's one-based per-thread
    position), then overwrites the slot in place.  Recovery
    ({!Kv_recovery}) discards torn slots by checksum and rolls them
    back from the last sealed record, so a put is failure-atomic under
    every discipline:

    - {!discipline.Strict_stores}: no annotations; run under strict
      persistency, program order alone orders record before seal before
      slot (persist-per-store).
    - {!discipline.Epoch_undo}: two persist barriers per put — record
      fields → seal, seal → slot — so the slot update persists only
      after its complete undo record; everything else batches.
    - {!discipline.Strand_ops}: the epoch barriers, plus [NewStrand] at
      operation start.  The probe {e reads} the slots it must be
      ordered after (the paper's minimal-ordering idiom), so puts to
      disjoint groups persist concurrently and the persist critical
      path collapses to the hottest slot's chain.
    - {!discipline.Buggy_undo}: epoch with the seal → slot barrier
      removed — a crash can persist slot words before the undo record
      is sealed, which the failure-injection tests must detect. *)

type discipline =
  | Strict_stores
  | Epoch_undo
  | Strand_ops
  | Buggy_undo

type params = {
  discipline : discipline;
  threads : int;
  ops_per_thread : int;
  get_every : int;
      (** every [get_every]-th operation is a get (0 = all puts;
          otherwise must be >= 2) *)
  key_space : int;  (** distinct keys; load factor = key_space/slots *)
  groups : int;  (** bucket groups; one lock each *)
  group_size : int;  (** slots per group *)
  seed : int;
  policy : Memsim.Machine.policy;
  dist : Workloads.Keygen.dist;
      (** key-popularity shape for the draw schedule.  [Uniform]
          reproduces the original mix-based draws bit-for-bit; [Zipf]
          and [Hotset] delegate to {!Workloads.Keygen} (still a pure
          function of seed and draw index, so recovery replay works
          unchanged). *)
  machine : Memsim.Machine.model;
      (** consistency model; [Tso] adds per-thread store buffers *)
  persistence : Memsim.Machine.persistence;
      (** [Pbuffered] drains flushed lines asynchronously from the
          persistence buffer instead of committing them at the fence *)
  barrier : Memsim.Machine.barrier_impl;
      (** how persist barriers are realized: the paper's atomic
          [Pbarrier] or the Px86 [Flush_sfence] annotation *)
}

type layout = {
  table_addr : int;
  table_bytes : int;
  log_addr : int;
  log_bytes : int;
  groups : int;
  group_size : int;
  log_capacity : int;  (** undo records per thread *)
}

type result = {
  layout : layout;
  puts : int;
  gets : int;
  probes : int;  (** slots inspected across all probe sequences *)
  events : int;
}

val discipline_name : discipline -> string

val discipline_for : Persistency.Config.mode -> discipline
(** The discipline the paper's model pairing implies: strict ->
    persist-per-store, epoch -> undo log + barriers, strand -> undo log
    + barriers + strands. *)

val validate : params -> unit
(** @raise Invalid_argument on non-positive sizes, [get_every = 1], or
    [key_space > groups * group_size]. *)

val pp_params : Format.formatter -> params -> unit

(** {1 Deterministic workload shape}

    Keys, values, group placement and the put/get schedule are pure
    functions of [params], so a recovery checker can re-derive every
    legal store state from the parameters alone — no ground truth needs
    to survive the crash. *)

type op =
  | Put of { key : int; value : int64 }
  | Get of { key : int }

val mix : int -> int -> int
(** [mix seed x]: a splitmix-style finalizer into [0 .. max_int], the
    one hash behind key draws, group placement and shard routing. *)

val place_keys :
  groups:int -> group_size:int -> int -> (int -> int) -> int array
(** [place_keys ~groups ~group_size n hash].(i) is the group of the
    [i]-th of [n] keys, first fit: [hash i mod groups], or the next
    group with room, wrapping round.  No group gets more than
    [group_size] keys; [n] must not exceed [groups * group_size]. *)

val key_groups : params -> int array
(** [key_groups p].(k - 1) is the bucket group of key [k] (keys are
    [1 .. key_space]).  Group occupancy never exceeds [group_size], so
    an in-group probe always terminates. *)

val op_of : params -> tid:int -> seq:int -> op

val written : params -> (int * int64) list
(** Every (key, value) pair some put writes, across all threads. *)

val slot_sum : key:int64 -> value:int64 -> int64
(** The slot checksum; never zero for the keys and values {!op_of}
    produces, so a torn slot cannot masquerade as valid. *)

val slot_bytes : int
val rec_bytes : int

(** {1 Execution} *)

val sites : discipline -> Memsim.Machine.site list
(** The barrier and new-strand call sites a discipline enables, of
    [put-strand] and [get-strand] (a new-strand at the top of each put
    and get) and [fields-seal] and [seal-slot] (a put's two
    barriers). *)

val run :
  ?sites:Memsim.Machine.site list ->
  params ->
  sink:(Memsim.Event.t -> unit) ->
  result
(** Build a machine, run the operation schedule with the barriers and
    new-strands of [sites] (default: [sites params.discipline]), stream
    every event into [sink].  Puts are labelled ["put"] and gets
    ["get"] for {!Persistency.Engine.cp_per_label}. *)
