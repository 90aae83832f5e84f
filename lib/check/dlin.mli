(** Durable-linearizability oracle.

    Upgrades recovery checking from structural invariants to the
    correctness condition of Izraelevitz et al. (surveyed by
    Ben-David–Wei, PAPERS.md): after a crash, the recovered abstract
    state must be reachable by some linearization of the operations —
    fully durable operations must survive, partially durable
    (in-flight at the cut) operations may round either way, and no
    operation may materialize without any durable persist.

    The crash model is the persist dependence graph's: a crash state
    is a down-closed set of atomic persists (a {e cut}), not a
    wall-clock instant.  Under epoch persistency persists are
    asynchronous past a barrier, so the family checkers require
    exactly the closure each workload's discipline actually enforces
    (buffered durable linearizability): lock-serialized families
    (queue, KV) get real-time closure through the lock order, the
    lock-free set gets reachability-chain closure through the
    destination flushes.  {!check_linearization} is the strict
    reference semantics for hand-built histories.

    An operation's identity comes from a {!History} recorded while the
    workload runs: per-thread [Label] events open operations, and
    every persist event lands in the currently open operation of its
    thread.  Persist-event ordinals are resolved to graph node ids via
    {!Persistency.Engine.node_of_persist_event}, so classification
    against a cut is exact even under coalescing. *)

(** Abstract effect of one operation. *)
type effect_ =
  | Add of { key : int }  (** set insert *)
  | Put of { key : int; value : int64 }  (** map put *)
  | Enq of { etid : int; eseq : int }  (** queue append of (tid, seq) *)
  | Read  (** no persistent effect *)

type op = {
  tid : int;
  index : int;  (** per-thread operation index *)
  label : string;
  start_ : int;  (** trace index of the operation's [Label] *)
  finish : int;  (** trace index of its last event *)
  persists : Persistency.Iset.t;  (** graph nodes its stores landed in *)
  effect_ : effect_;
}

(** How an operation's persists relate to a cut. *)
type klass =
  | Required  (** every persist durable: the op completed durably *)
  | Optional  (** partially durable: in flight, may round either way *)
  | Excluded  (** no persist durable (or no persists at all) *)

val classify : cut:Persistency.Iset.t -> op -> klass

(** Operation-history recorder, built as a sink tee. *)
module History : sig
  type t

  val create : unit -> t

  val sink : t -> (Memsim.Event.t -> unit) -> Memsim.Event.t -> unit
  (** [sink t next] records each event and forwards it to [next]
      (normally {!Persistency.Engine.observe}). *)

  val ops :
    t ->
    node_of_persist:(int -> int) ->
    effect_of:(tid:int -> index:int -> effect_) ->
    op list
  (** Close all open operations and return the history, ordered by
      start.  [node_of_persist] is
      {!Persistency.Engine.node_of_persist_event} partially applied;
      [effect_of] assigns each (thread, per-thread index) its
      abstract effect — a pure function of workload params. *)
end

val check_set :
  ops:op list ->
  cut:Persistency.Iset.t ->
  recovered:int list ->
  (unit, string) result
(** Insert-only set: every [Required] insert's key must be recovered,
    every recovered key must come from a non-[Excluded] insert. *)

val check_map :
  ops:op list ->
  cut:Persistency.Iset.t ->
  recovered:(int * int64) list ->
  (unit, string) result
(** Per-key map with lock-serialized puts: a recovered binding must
    come from a non-[Excluded] put that no [Required] put to the same
    key real-time supersedes (returned before it was invoked —
    overlapping puts may serialize in either order), and a key with a [Required] put must
    be bound. *)

val check_fifo :
  ops:op list ->
  cut:Persistency.Iset.t ->
  recovered:(int * int) list ->
  (unit, string) result
(** Queue with lock-serialized commits; [recovered] is the decoded
    (tid, seq) entries in queue order.  Entries must respect real
    time, come from non-[Excluded] inserts, and be closed under
    real-time precedence. *)

val check_linearization :
  ops:op list ->
  cut:Persistency.Iset.t ->
  init:'s ->
  apply:('s -> op -> 's) ->
  equal:('s -> 's -> bool) ->
  recovered:'s ->
  (unit, string) result
(** Reference semantics, by search: does some subset of operations —
    all [Required], any [Optional], no [Excluded] — closed under
    real-time precedence (one operation returned before another was
    invoked) admit a linearization respecting it whose final state
    equals [recovered]?  Exponential; unit-test sized
    histories only.
    @raise Invalid_argument beyond 12 effectful operations. *)
