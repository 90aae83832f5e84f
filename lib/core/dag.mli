(** Directed graphs over dense integer node ids, with the order-theory
    operations the persistency analyses need: cycle detection
    (Figure 1's unsatisfiable constraint sets), topological sorting,
    reachability, and sampling of down-closed sets (legal recovery
    states). *)

type t

val create : n:int -> t
(** [n] nodes, ids [0 .. n-1], no edges. *)

val of_preds : Iset.t array -> t
(** [of_preds p]: an edge [u -> v] for each [u] in [p.(v)].
    @raise Invalid_argument on an id out of range. *)

val node_count : t -> int
val add_edge : t -> int -> int -> unit
(** [add_edge g u v]: edge [u -> v] ("u before v").  Duplicates are
    permitted and deduplicated lazily. *)

val succs : t -> int -> int list
val preds : t -> int -> int list

val has_cycle : t -> bool

val topo_sort : t -> int list option
(** Some order listing each node after all its predecessors, or [None]
    when cyclic. *)

val reachable_from : t -> int -> bool array
(** [reachable_from g u].(v) iff there is a (possibly empty) path
    [u ->* v]. *)

val ancestors : t -> int -> Iset.t
(** Strict ancestors (excludes the node itself). *)

val down_closure : t -> Iset.t -> Iset.t
(** Smallest superset closed under predecessors. *)

val is_down_closed : t -> Iset.t -> bool
(** Walks the successors of the nodes outside the set. *)

val random_down_closed : ?size:int -> t -> Random.State.t -> Iset.t
(** A random down-closed subset: a prefix (of random length, or [size]
    if given) of a random linear extension.  Every down-closed set has
    non-zero probability.  Walks the successors of the nodes it takes. *)

val all_down_closed : t -> Iset.t list
(** Every down-closed subset, in descending order of the bitmask with
    bit [v] for node [v] (the full set first when legal, the empty set
    last).  A DFS over whole closures costs O(n) per down-closed set,
    not per subset, and handles cycles.  For graphs of at most ~20
    nodes, whose cut count can still approach 2^n.
    @raise Invalid_argument above 24 nodes. *)
