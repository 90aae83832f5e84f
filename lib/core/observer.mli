(** The recovery observer (paper Section 4).

    Failure is modeled as an observer that atomically reads all of
    persistent memory.  The states it may observe are exactly the
    down-closed subsets ("cuts") of the persist dependence graph: a
    persist can be durable only if everything it is ordered after is
    durable, and persists within one atomic node are all-or-nothing.
    {!Persist_graph.dag} gives the order; {!Dag.all_down_closed}
    and {!Dag.random_down_closed} enumerate and sample its cuts.

    Applying a cut's writes in node-id order (consistent with SC store
    order, hence with strong persist atomicity) to an initially zeroed
    persistent image produces the post-crash memory a recovery
    procedure would see. *)

val image_of_cut : Persist_graph.t -> Iset.t -> capacity:int -> bytes
(** Persistent memory image after a crash in state [cut]: zeros
    overwritten by the writes of the cut's nodes in node-id order.
    Legality is checked against the graph's own {!Persist_graph.dag},
    which is built once per graph, not once per cut or check.
    @raise Invalid_argument if [cut] is not down-closed in it. *)

val image_of_mask : Persist_graph.t -> Bytes.t -> capacity:int -> bytes
(** {!image_of_cut} of a cut given as a {!Dag} mask. *)

val final_image : Persist_graph.t -> capacity:int -> bytes
(** Image when every persist completed. *)
