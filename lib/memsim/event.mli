(** Memory trace events.

    A trace is the sequence of memory events in the order the machine
    serialized them.  Because exactly one event executes at a time and
    each thread's events appear in program order, the trace observes
    sequential consistency — the same property the paper establishes
    for its PIN-based tracer (Section 7, "Memory Trace Generation").

    Lock acquires appear as {!kind.Rmw} accesses to the lock word and
    releases as {!kind.Store} accesses, so synchronization is visible
    to the persistency analyses purely as conflicting accesses. *)

type kind =
  | Load
  | Store
  | Rmw  (** atomic read-modify-write: conflicts as both load and store *)

type flush_kind =
  | Clflushopt  (** flush the line from the cache hierarchy *)
  | Clwb  (** write the line back, may retain it *)

type fence_kind =
  | Sfence
  | Mfence

type access = {
  tid : int;
  addr : int;
  size : int;  (** bytes, 1..8, never straddling an 8-byte boundary *)
  value : int64;  (** value stored (or read, for [Load]) *)
  space : Addr.space;
}

type site = string
(** The name of the program point that issued a barrier or new-strand:
    a workload names each such call site so that an annotation is a set
    of sites over one program.  [""] is an unnamed site. *)

type t =
  | Access of kind * access
  | Persist_barrier of { tid : int; site : site }
      (** [PersistBarrier] by thread [tid] at [site] *)
  | New_strand of { tid : int; site : site }
      (** [NewStrand] by thread [tid] at [site] *)
  | Label of int * string
      (** logical operation boundary (e.g. the start of a queue
          insert); carries no ordering semantics *)
  | Flush of { tid : int; kind : flush_kind; addr : int }
      (** [clflushopt]/[clwb] of the cache line holding [addr]: asks
          that the line's current contents reach persistence; ordered
          only by a following fence (Px86 semantics) *)
  | Fence of { tid : int; kind : fence_kind }
      (** [sfence]/[mfence]: orders earlier flushes (and, on a TSO
          machine, drains the store buffer) before later accesses *)
  | Pdrain of { tid : int; kind : flush_kind; addr : int }
      (** a buffered machine's persistence buffer drained the entry the
          [Flush] with the same [tid]/[kind]/[addr] enqueued: the
          captured line contents reach NVRAM {e now}.  [tid] is the
          flushing thread; the scheduling decision itself runs under a
          persist pseudo-tid.  Only emitted by machines created with
          [~persistence:Pbuffered]. *)

val tid : t -> int
val is_persist : t -> bool
(** [is_persist e] is true when [e] writes to the persistent address
    space, i.e. it generates a persist. *)

val equal : t -> t -> bool

val to_string : t -> string
(** One-line textual form, parseable by {!of_string}.  A barrier or
    new-strand at a named site ends in the site's name ([pb 0
    data-head]); at an unnamed site it has no such token ([pb 0]). *)

val of_string : string -> t
(** Inverse of {!to_string}.  @raise Failure on malformed input. *)
