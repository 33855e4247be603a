(** Basic graph traversals: reachability, connected components and
    shortest paths. All functions treat the graph as undirected.

    Reachability, components and connectivity share one set-only search.
    [?avoid_nodes] asks about [G - S] without building it: to split a
    block along a separation pair ({!Triconnected.split_biconnected})
    and to test whether a cycle leaves a monitor in every remaining
    component ([Classify]). Shortest paths come from a breadth-first
    search that scans neighbours in increasing order and fixes each
    node's parent at its first discovery. *)

val reachable :
  ?avoid_nodes:Graph.NodeSet.t -> Graph.t -> Graph.node -> Graph.NodeSet.t
(** Nodes reachable from the start node (inclusive) without entering any
    avoided node. The start node must not be avoided. *)

val components :
  ?avoid_nodes:Graph.NodeSet.t -> Graph.t -> Graph.NodeSet.t list
(** Connected components of the graph with the avoided nodes removed. *)

val is_connected : Graph.t -> bool
(** Whether the graph is connected. Graphs with zero or one node are
    connected. *)

val n_components : Graph.t -> int

val shortest_path :
  Graph.t -> Graph.node -> Graph.node -> Graph.node list option
(** A shortest path as a node sequence (inclusive of both endpoints), or
    [None] if unreachable. *)
