(** Recovery procedure and invariant checker for the persistent queues.

    Mirrors the paper's recovery rule: "an entry is not valid and
    recoverable until the head pointer encompasses the associated
    portion of the data segment".  Given a post-crash persistent memory
    image (from {!Persistency.Observer}), [check] recovers the queue
    and validates:

    - the head pointer is a legal offset (slot-aligned, within what was
      ever inserted);
    - every entry below the head is intact: correct length word and
      payload bytes (recomputed from the entry's embedded identity);
    - entries of each thread appear in order with consecutive sequence
      numbers — no lost or reordered inserts below the head.

    The checker requires a run without buffer wrap-around
    ([capacity_entries >= threads * inserts_per_thread]); wrapped runs
    deliberately overwrite old entries and have no crisp invariant. *)

type recovered = {
  head : int;
  entries : (int * int) list;  (** (tid, seq) below the head, in order *)
}

val recover :
  params:Queue.params -> layout:Queue.layout -> bytes ->
  (recovered, string) result

val check_fifo : (int * int) list -> (unit, string) result
(** The ordering invariant on recovered entries: per thread, sequence
    numbers are exactly 0, 1, 2, ... — no lost or reordered insert. *)

val check :
  params:Queue.params -> layout:Queue.layout -> bytes ->
  (unit, string) result
(** {!recover}, then {!check_fifo} on its entries. *)

val image_capacity : Queue.layout -> int
(** Bytes of persistent address space the image must cover. *)
