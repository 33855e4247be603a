(** Basic graph traversals: reachability, connected components, BFS
    distances, shortest paths and spanning forests. All functions treat
    the graph as undirected.

    Reachability, components and connectivity share one set-only search.
    Distances, shortest paths and spanning forests read one breadth-first
    search that scans neighbours in increasing order and fixes each
    node's parent at its first discovery.

    [?avoid_nodes] and [?avoid_edge] ask about [G - S] or [G - l]
    without building it. Only {!components} takes them in production,
    with [?avoid_nodes]: to split a block along a separation pair
    ({!Triconnected.split_biconnected}) and to test whether a cycle
    leaves a monitor in every remaining component ([Classify]). *)

val reachable :
  ?avoid_nodes:Graph.NodeSet.t ->
  ?avoid_edge:Graph.edge ->
  Graph.t ->
  Graph.node ->
  Graph.NodeSet.t
(** Nodes reachable from the start node (inclusive) without entering any
    avoided node or crossing the avoided edge. The start node must not be
    avoided. *)

val components :
  ?avoid_nodes:Graph.NodeSet.t -> Graph.t -> Graph.NodeSet.t list
(** Connected components of the graph with the avoided nodes removed. *)

val is_connected :
  ?avoid_nodes:Graph.NodeSet.t -> ?avoid_edge:Graph.edge -> Graph.t -> bool
(** Whether the graph (minus avoided nodes / the avoided edge) is
    connected. Graphs with zero or one remaining node are connected. *)

val n_components : ?avoid_nodes:Graph.NodeSet.t -> Graph.t -> int

val bfs_distances : Graph.t -> Graph.node -> int Graph.NodeMap.t
(** Hop distances from the source to every reachable node. *)

val shortest_path :
  Graph.t -> Graph.node -> Graph.node -> Graph.node list option
(** A shortest path as a node sequence (inclusive of both endpoints), or
    [None] if unreachable. *)

val spanning_tree : Graph.t -> Graph.EdgeSet.t
(** Edges of a BFS spanning forest (a tree per component). *)
