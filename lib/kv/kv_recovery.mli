(** Recovery procedure and invariant checker for the KV store.

    Given a post-crash persistent memory image (from
    {!Persistency.Observer} via {!Recovery}), [recover] replays the
    store's recovery rule and [checker] validates the result:

    - every undo-log record is either unsealed (ignored) or sealed with
      intact, legal fields: the slot index belongs to the group its
      key hashes to, and the saved previous triple is zero (first claim
      of the slot) or a checksummed (key, value) pair some put actually
      wrote;
    - every table slot is empty, valid (checksum matches a written
      pair, placed in the right group), or torn — in which case a
      sealed, unsuperseded undo record for that slot must exist, and
      rolling the slot back to its saved triple must yield a consistent
      state;
    - after rollback, no key is bound twice.

    The put schedule is a pure function of {!Kv.params}
    ({!Kv.op_of}), so the checker re-derives each log record's writer
    — and therefore the full undo chain of every slot — from the
    parameters alone; nothing needs to survive the crash but the image.

    Records sealed out of order are expected under strand persistency:
    [NewStrand] severs the thread-order persist dependence between
    consecutive operations, so a later record's seal may be durable
    while an earlier one's is not.  Recovery therefore treats every
    record position independently rather than stopping at the first
    unsealed record (contrast {!Workloads.Queue_recovery}). *)

type recovered = {
  bindings : (int * int64) list;
      (** key -> value after recovery, sorted by key *)
  sealed : int;  (** sealed undo records in the image *)
  rolled_back : int;  (** torn slots restored from the log *)
}

val recover :
  params:Kv.params -> layout:Kv.layout -> bytes -> (recovered, string) result
(** Applied to [~params ~layout] alone, it builds the put schedule, the
    key groups and the written-pair table once; the function it returns
    reuses them for every image. *)

val checker : params:Kv.params -> layout:Kv.layout -> Recovery.observer
(** {!recover} as a pass/fail observer, shaped for {!Recovery.check};
    its tables, too, are built when it is applied to [~params ~layout]. *)

val image_capacity : Kv.layout -> int
(** Bytes of persistent address space the image must cover. *)

val verify :
  params:Kv.params ->
  layout:Kv.layout ->
  graph:Persistency.Persist_graph.t ->
  strategy:Recovery.strategy ->
  (Recovery.report, Recovery.failure) result
(** Failure-inject this run: {!Recovery.check} with {!checker} as the
    observer. *)

(** {1 Group commit}

    Recovery for {!Kv_group} shards.  The commit marker makes this path
    stricter than the per-op one: marker value B promises batches
    [0 .. B-1] fully durable, so recovery must reproduce {e exactly}
    the table state after batch B-1 — "recovery lands on a batch
    boundary" is an equality check against the replayed batch prefix,
    not just a structural invariant.

    Rule: committed batches' records must all be intact (checksummed,
    legal slot, matching the replayed put); records of uncommitted
    batches are applied in {e reverse} global order, each only when its
    slot is torn or still holds that record's new write.  The value
    condition matters because a batch's records share one epoch: a
    later record can be durable while an earlier one is absent, and
    unconditional rollback would resurrect stale triples. *)

type group_recovered = {
  g_bindings : (int * int64) list;
      (** key -> value after recovery, sorted by key *)
  g_committed : int;  (** the marker: committed put-batches *)
  g_rolled_back : int;  (** undo records applied *)
}

val recover_group :
  layout:Kv_group.layout ->
  batches:Kv_group.put list list ->
  bytes ->
  (group_recovered, string) result
(** [batches] is the shard's committed put-batch schedule in commit
    order ({!Kv_group.batches}); the image is not mutated.  As with
    {!recover}, the tables drawn from [~layout ~batches] are built once
    when the function is applied to them. *)

val check_group :
  layout:Kv_group.layout ->
  batches:Kv_group.put list list ->
  bytes ->
  (unit, string) result

val group_image_capacity : Kv_group.layout -> int
