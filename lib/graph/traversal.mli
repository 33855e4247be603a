(** Basic graph traversals: reachability, connected components, BFS
    distances. All functions treat the graph as undirected.

    Several functions take [?avoid_nodes] / [?avoid_edge] parameters so
    that callers can ask connectivity questions about [G - v] or [G - l]
    without materializing the smaller graph — the identifiability tests of
    Section 7.1 ask many such questions. *)

val reachable :
  ?avoid_nodes:Graph.NodeSet.t ->
  ?avoid_edge:Graph.edge ->
  Graph.t ->
  Graph.node ->
  Graph.NodeSet.t
(** Nodes reachable from the start node (inclusive) without entering any
    avoided node or crossing the avoided edge. The start node must not be
    avoided. *)

val component_of : Graph.t -> Graph.node -> Graph.NodeSet.t
(** Connected component containing the node. *)

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
