(** Inspectors for the persist dependence graph: critical-chain
    extraction, Graphviz DOT and JSON-lines exports, and a readable
    persist-by-persist walk of the longest dependence chain.

    These back [persistsim graph] and [persistsim analyze --explain];
    they read a finished {!Persist_graph.t} and never mutate it. *)

val critical_chain : Persist_graph.t -> int list
(** One longest dependence chain, as node ids in dependence order
    (each node persists after the one before it), read from the
    recorded levels.  Its length equals the graph's maximum level — the
    engine's {!Engine.critical_path} when the graph was recorded by an
    engine.  The chain ends at the lowest-id node of the maximum level
    and each step goes to the lowest-id dependence one level down, so
    it is deterministic.  [order] edges carry no level and are not
    read: a graph whose [order] edges close a cycle exports along its
    [deps].  [[]] for an empty graph.
    @raise Invalid_argument naming the first node whose level is not
    1 + its deepest dependence's (1 with none), the invariant
    {!Persist_graph.node} states; only a hand-built graph breaks it. *)

val to_dot : Format.formatter -> Persist_graph.t -> unit
(** Graphviz DOT.  Nodes are annotated with level and thread id and
    colored by thread; the nodes on {!critical_chain} are additionally
    highlighted (double border, bold red) and the chain's edges drawn
    bold, so the critical path is visible at a glance.  Edges point
    dependence → dependent, i.e. in persist order. *)

val to_jsonl : Format.formatter -> Persist_graph.t -> unit
(** One JSON object per node per line:
    [{"id":_,"tid":_,"level":_,"critical":_,"writes":[...],"deps":[...]}].
    [critical] marks membership of {!critical_chain}.  Dependence ids
    are sorted ascending. *)

val fingerprint : Persist_graph.t -> string
(** Hex digest of the graph's canonical form, invariant under trace
    equivalence: nodes are renumbered by (thread, per-thread creation
    order) — which every equivalent interleaving agrees on — before
    digesting writes, levels and dependence edges.  Two executions from
    the same Mazurkiewicz trace class therefore fingerprint equal, so a
    systematic explorer ({!Check.Driver}) can deduplicate recovery
    checking across equivalent interleavings. *)

val explain : Format.formatter -> Persist_graph.t -> unit
(** The longest dependence chain as a persist-by-persist walk: one line
    per level, showing the node, its thread, its writes (first address
    and coalesced-write count) and which dependence forced the level.
    The number of steps equals the critical path. *)
