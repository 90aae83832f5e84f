(** Directed graphs over dense integer node ids, with the order-theory
    operations the persistency analyses need: cycle detection
    (Figure 1's unsatisfiable constraint sets), topological sorting,
    reachability, and sampling of down-closed sets (legal recovery
    states).

    A graph is immutable once built: each node's successors and
    predecessors are stored as ascending int arrays, beside the
    in-degree of every node.  {!of_preds} costs O(n + edges), and so
    does every walk below: a draw, a legality check, a closure, a
    topological sort.  Whatever asks only which nodes precede which
    (cuts, closures, reachability) gets the same answers from
    {!of_preds_reduced}'s transitive reduction, whose walks cost
    O(n + reduced edges).  Sets of nodes passed in and handed back
    (cuts, closures) are {!Iset.t}; a {e mask} is the same set as a
    [Bytes.t] of length n, byte [v] non-zero iff [v] is a member. *)

type t

val of_preds : int array array -> t
(** [of_preds p]: [p.(v)] lists the predecessors of node [v], so there
    is an edge [u -> v] ("u before v") for each [u] in [p.(v)].  Ids
    may come in any order and repeat; a repeated edge counts once.
    The graph keeps its own copy of [p].
    @raise Invalid_argument on an id out of range. *)

val of_preds_reduced : int array array -> t
(** The transitive reduction of [of_preds p]: every node keeps the same
    ancestors, and no edge is implied by a path through other nodes.
    Cuts, closures, reachability and every draw and enumeration below
    come out exactly as from [of_preds p], in the same order.  A cyclic
    [p] keeps all its edges.  [p] is not modified.

    Cost: beyond a topological sort, each node's ancestors are kept as
    bits one block of 1,008 topological positions at a time, so the
    scratch is 16 words per node whatever the graph's size.  Building
    takes O((n + reduced edges) * n / 63) word operations, plus a scan
    of the edges that reach each block.
    @raise Invalid_argument on an id out of range. *)

val node_count : t -> int

val succs : t -> int -> int list
val preds : t -> int -> int list
(** In ascending order. *)

val has_cycle : t -> bool

val topo_sort : t -> int list option
(** Some order listing each node after all its predecessors, or [None]
    when cyclic. *)

val reachable_from : t -> int -> bool array
(** [reachable_from g u].(v) iff there is a (possibly empty) path
    [u ->* v]. *)

val ancestors : t -> int -> Iset.t
(** Strict ancestors (the node itself only when it lies on a cycle). *)

val down_closure : t -> Iset.t -> Iset.t
(** Smallest superset closed under predecessors. *)

val is_down_closed : t -> Iset.t -> bool
(** Walks the successors of the nodes outside the set: O(n + edges).
    @raise Invalid_argument on an id out of range. *)

val is_down_closed_mask : t -> Bytes.t -> bool
(** {!is_down_closed} of a mask of length [node_count t]. *)

val fill_mask : t -> Iset.t -> Bytes.t -> unit
(** [fill_mask t set mask] makes [mask] (of length [node_count t]) the
    mask of [set].
    @raise Invalid_argument on an id out of range. *)

val set_of_mask : t -> Bytes.t -> Iset.t

val random_down_closed : ?size:int -> t -> Random.State.t -> Iset.t
(** A random down-closed subset: a prefix (of random length, or [size]
    if given) of a random linear extension.  Every down-closed set has
    non-zero probability.  Walks the successors of the nodes it takes:
    O(n + edges) per draw, O(n + reduced edges) on a graph from
    {!of_preds_reduced}.  A node becomes ready when its last-taken
    predecessor is taken, and that predecessor is always an immediate
    one, so the reduction draws the same cuts from the same [rng].
    Nodes on or behind a cycle are never taken. *)

val sampler : t -> ?size:int -> Random.State.t -> Bytes.t -> unit
(** [sampler t] allocates a draw's scratch once; each call of the
    function it returns makes {!random_down_closed}'s draw from the
    same [rng] into a caller's mask of length [node_count t], and
    allocates nothing. *)

val all_down_closed : t -> Iset.t list
(** Every down-closed subset, in descending order of the bitmask with
    bit [v] for node [v] (the full set first when legal, the empty set
    last).  A DFS over whole closures costs O(n) per down-closed set,
    not per subset, and handles cycles.  For graphs of at most ~20
    nodes, whose cut count can still approach 2^n.
    @raise Invalid_argument above 24 nodes. *)
