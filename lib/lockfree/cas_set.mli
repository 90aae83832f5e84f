(** Lock-free durable sorted-list set (CAS-based inserts).

    The first CAS-based workload family: a sorted singly-linked list
    set where each insert walks link words from a persistent head
    pointer and publishes a pooled node with a compare-and-swap on the
    link it lands on ({!Memsim.Machine.rmw} — a locked instruction,
    which on the TSO machine drains the store buffer first, per Px86).
    No locks anywhere: contention shows up as CAS retries.

    Three persistence disciplines bracket the design space that
    NVTraverse ("the destination is more important than the journey")
    opens for traversal data structures:

    - {!discipline.Flush_all}: persist the whole journey — clflushopt
      every word it reads, immediately {e after} each read (so the
      flush covers the publisher of the loaded pointer), plus the new
      node, all fenced before the CAS.
    - {!discipline.Nvtraverse}: traverse flush-free; persist only the
      destination window (new node fields, the CASed link, and the
      link followed to reach it) before the linearizing CAS.  Under
      epoch persistency plain loads order nothing, so the walk is
      free; the pre-CAS fence makes every published node's
      reachability chain durable-closed.
    - {!discipline.Buggy_traverse}: skip the pre-CAS destination flush
      entirely.  A crash can then persist a link CAS while the node it
      publishes (or the chain reaching it) is still volatile — the
      recovery decoder sees a torn node, or a silently truncated list
      that drops fully durable inserts (caught by {!Check.Dlin}).

    Every insert ends with clflushopt of the CASed link + sfence, its
    durability point. *)

type discipline =
  | Flush_all
  | Nvtraverse
  | Buggy_traverse

type params = {
  discipline : discipline;
  threads : int;
  inserts_per_thread : int;
  key_space : int;  (** keys are drawn from [1, key_space], distinct *)
  seed : int;
  policy : Memsim.Machine.policy;
  machine : Memsim.Machine.model;
  persistence : Memsim.Machine.persistence;
      (** [Pbuffered] puts every clflushopt behind the asynchronous
          persistence buffer, so a crash can cut the flush-to-NVRAM
          window that [Psync] closes at the next fence. *)
}

type layout = {
  head_addr : int;  (** 8-byte head pointer; 0 = empty list *)
  nodes_addr : int;  (** node pool base; node [i] at [i * node_bytes] *)
  node_bytes : int;  (** 16: next at +0, key at +8 *)
  total : int;  (** pooled nodes = threads * inserts_per_thread *)
}

type result = {
  layout : layout;
  inserts : int;
  events : int;
  keys : int array;  (** global insert index -> key inserted *)
}

val explore_params :
  ?threads:int ->
  ?depth:int ->
  ?machine:Memsim.Machine.model ->
  ?persistence:Memsim.Machine.persistence ->
  discipline ->
  params
(** Small fixed shape for systematic exploration (2 threads x [depth]
    inserts, round-robin seed 1): the lock-free family's explore-sized
    params in [Check.Driver]. *)

val discipline_name : discipline -> string
val validate : params -> unit

val keys_for : params -> int array
(** The key schedule: distinct keys, a pure function of params, so the
    recovery decoder can re-derive every pooled node's expected key.
    Index is the global insert index [tid * inserts_per_thread + seq]. *)

val image_capacity : layout -> int
(** Bytes of persistent address space a crash image must cover. *)

val run : params -> sink:(Memsim.Event.t -> unit) -> result
(** Build a machine, run every thread's inserts under the discipline,
    stream events into [sink].  Inserts are labelled ["insert"]. *)
