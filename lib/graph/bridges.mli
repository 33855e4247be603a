(** Bridge detection and 2-edge-connectivity (the paper's reference [27]
    for testing Condition ① of Theorem 3.2).

    A bridge is a link whose removal disconnects its component. A graph is
    2-edge-connected iff it has at least two nodes, is connected, and has
    no bridge. In a simple graph the bridges are exactly the blocks with
    one link, so both questions are read off the lowpoint DFS of
    {!Biconnected}; there is no second one. *)

val bridges : Graph.t -> Graph.EdgeSet.t
(** All bridges, over every connected component. Linear time. *)

val is_two_edge_connected : Graph.t -> bool
(** [true] iff the graph has ≥ 2 nodes, is connected and bridge-free. *)

val is_two_edge_connected_without : Graph.t -> Graph.edge -> bool
(** [is_two_edge_connected_without g l] is {!is_two_edge_connected} of
    [G - l]. The edge must be present in [g]. *)
