(** Reference implementation of persistent memory order, used to verify
    {!Engine} in the test suite.

    The oracle computes, directly from the model definitions in paper
    Section 5 and in O(events²) time, the set of ordered persist pairs:

    - same-thread accesses separated by a persist barrier (every
      adjacent pair under strict persistency; within one strand under
      strand persistency);
    - conflicting accesses (overlapping tracked blocks, at least one
      store) in trace order, honoring the TSO and persistent-space-only
      ablations;

    then closes transitively.  Two persist events are {e required
    ordered} when a persistent-memory-order path connects them.  The
    engine's output is correct when every required-ordered pair of
    persists either shares an atomic persist node or is connected in
    the persist dependence graph with strictly increasing levels. *)

type t

val build : Config.t -> Memsim.Trace.t -> t

val critical_path : t -> int
(** Longest chain of required-ordered persist events — the persist
    ordering-constraint critical path computed independently of the
    engine, by longest-path dynamic programming over the closed order.
    Coalescing merges persists {e within} a level without shortening
    any chain of distinct levels, so this must equal
    {!Engine.critical_path} when the engine runs with
    [coalescing = false] (the differential fuzz check in
    [test/test_fuzz.ml]); with coalescing the engine's value can only
    be lower or equal. *)

val verify_engine : Config.t -> Memsim.Trace.t -> (unit, string) result
(** Re-run the engine with graph recording over [trace] and check its
    node assignment and levels against the oracle.  Also checks graph
    acyclicity, that every node's level is 1 + its deepest dependence's
    (1 with none; the invariant {!Persist_graph.node} states), and that
    coalesced nodes respect every constraint. *)
