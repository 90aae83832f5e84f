(** Group-commit (epoch-batched) variant of the persistent KV shard.

    Where {!Kv} pays two persist barriers {e per put}, a [Kv_group]
    shard accumulates a whole batch of puts and seals them with a
    {e single} barrier pair:

    {v records(all puts) -> barrier -> slots(all puts) -> barrier -> marker v}

    so per-put ordering cost falls as ~2/batch — the paper's epoch
    amortization, realized as a serving-side group commit.  The undo
    records are 48 bytes (slot index, previous slot triple, the {e new}
    value, and a full-record checksum): within a batch every record word
    shares one epoch, so integrity comes from the checksum rather than a
    barrier-ordered seal, and recovery rolls slots back in reverse
    record order, applying a record only when the slot still holds that
    record's new write or is torn.  The per-shard {e commit marker}
    counts sealed batches; {!Kv_recovery.recover_group} rolls any
    crash image back to exactly the marker's batch boundary.

    A shard is single-threaded by construction (the serve front-end
    gives each shard its own machine and driver thread), so there are
    no locks; under {!discipline.Strand_group} consecutive batches are
    separate strands ordered only through the probe loads and the
    marker's same-address persist chain. *)

type discipline =
  | Strict_group  (** no annotations; run under strict persistency *)
  | Epoch_group  (** the two barriers above *)
  | Strand_group  (** epoch barriers + [NewStrand] per batch *)
  | Buggy_seal
      (** epoch with the slots -> marker barrier removed: the marker
          can persist before the slot writes it claims, so recovery
          can miss committed data — failure injection must catch it. *)

type put = { key : int; value : int64 }

type layout = {
  table_addr : int;
  table_bytes : int;
  log_addr : int;
  log_bytes : int;
  marker_addr : int;  (** one word: count of committed put-batches *)
  groups : int;
  group_size : int;
  log_capacity : int;  (** total undo records across all batches *)
  keys : int array;  (** the shard's key set, in placement order *)
  kgroups : int array;  (** [kgroups.(i)] is the group of [keys.(i)] *)
}

type t

val create :
  ?policy:Memsim.Machine.policy ->
  ?group_size:int ->
  ?seed:int ->
  discipline:discipline ->
  keys:int list ->
  log_capacity:int ->
  sink:(Memsim.Event.t -> unit) ->
  unit ->
  t
(** Build the shard: a table sized for the given key set at <= 50%
    load (first-fit group placement, a pure function of [seed] and the
    key list), an undo log of [log_capacity] records, and the commit
    marker.  Defaults: round-robin policy (the shard runs one thread
    anyway), groups of 8 slots, seed 42.
    @raise Invalid_argument on duplicate or non-positive keys, or
    [group_size < 2]. *)

val machine : t -> Memsim.Machine.t
(** Spawn the driver thread here and [run] it; {!exec_batch} is only
    legal inside that thread's body. *)

val layout : t -> layout

val exec_batch : t -> puts:put list -> gets:int list -> unit
(** Thread-context (must run inside a thread spawned on [machine t]).
    Serve [gets] from the volatile table image, then commit [puts] as
    one sealed batch.  Batches with no puts touch no persistent state.
    Every key must belong to the shard's key set.
    @raise Invalid_argument on a foreign key or log overflow. *)

val run_batches : t -> (put list * int list) list -> unit
(** Convenience driver: one spawned thread executing each
    [(puts, gets)] batch in order, then [Machine.run]. *)

val batches : t -> put list list
(** The committed put-batches, in commit order — the ground truth the
    recovery checker replays. *)

val probes : t -> int

val rec_check :
  pos:int ->
  slot_index:int ->
  old_key:int64 ->
  old_value:int64 ->
  old_sum:int64 ->
  new_value:int64 ->
  int64
(** The full-record checksum (never zero); [pos] is the record's
    zero-based global log position. *)

val grec_bytes : int
(** 48: group-commit records carry new_value + checksum on top of
    {!Kv.rec_bytes}'s layout. *)
