(** Explicit persist dependence graph.

    Nodes are {e atomic persists} — a persist event, plus every later
    persist event coalesced into it.  Edges point from a node to the
    nodes it must persist {e after}.  Any down-closed set of nodes is a
    state the recovery observer may see at failure (see {!Observer}).

    Two edge kinds are distinguished.  [deps] are the persistency-model
    dependences of the paper (Section 5) — they both constrain crash
    states and propagate {e levels}, the persist-critical-path clock.
    [order] edges are {e order-only}: they constrain which down-closed
    cuts are reachable (durability ordering, e.g. Px86 flush+fence
    frontiers) but do not contribute to levels, because a flushed line
    waiting in the persistence buffer does not delay later persists —
    it only bounds what recovery may observe.

    Node ids are dense and assigned in creation order; creation order
    is consistent with the SC order of the underlying stores, so
    applying the writes of a down-closed set in id order yields the
    correct last-writer-wins memory image. *)

type write = { addr : int; size : int; value : int64 }

type node = private {
  id : int;
  tid : int;  (** thread that created the persist (first write) *)
  level : int;
      (** the length of the longest [deps] chain ending here: 1 + the
          deepest dependence's level, 1 with none.  The engine keeps
          this invariant ({!Oracle.verify_engine} checks it), so
          {!Graph_export.critical_chain} reads the critical path from
          it; [add_node] and [coalesce_into] do not check it. *)
  writes : write Memsim.Vec.t;  (** in store order *)
  mutable deps : Iset.t;  (** node ids this node persists after *)
  mutable order : Iset.t;
      (** order-only edges: constrain crash cuts, not levels *)
}
(** Only {!add_node} and {!coalesce_into} change a node's edges, so the
    order {!dag} keeps always reads the current ones. *)

type t

val create : unit -> t
val node_count : t -> int
val get : t -> int -> node

val add_node :
  t -> tid:int -> level:int -> deps:Iset.t -> ?order:Iset.t -> write -> int
(** Create a fresh atomic persist; returns its id.  Neither [deps] nor
    [order] ever contains the new id. *)

val coalesce_into : t -> int -> deps:Iset.t -> ?order:Iset.t -> write -> unit
(** Merge a later persist's write and newly discovered dependences into
    an existing node (self-dependences are dropped). *)

val reduce : t -> Iset.t -> Iset.t
(** [reduce t set] drops the members of [set] that are direct [deps] of
    another member: [set] minus the union of [deps n] over [n] in [set]
    (no node depends on itself, so this is exactly the one-level
    transitive reduction).  Members must be node ids of [t].  One pass
    stamps the members and walks each member's [deps] once, so a call
    costs the sum of [|deps n|] over the members.  It builds a new set
    only when a member is dropped, and otherwise returns [set] itself;
    beyond that it allocates a few words of closures and, as the graph
    grows, its scratch arrays.  The scratch state lives in [t], so
    graphs on different domains share none. *)

val iter : (node -> unit) -> t -> unit

val dag : t -> Dag.t
(** The crash-cut order: the transitive reduction
    ({!Dag.of_preds_reduced}) of the [dep -> node] edges, [deps] and
    [order] alike, so {!Observer} crash cuts respect both.  It has the
    recorded edges' cuts, ancestors, reachability and cycles, and the
    same cuts drawn and enumerated in the same order; a cyclic graph
    keeps every recorded edge.  Built by the first call after the last
    {!add_node} or {!coalesce_into} and kept on the graph, so every
    check of one graph shares one build. *)
