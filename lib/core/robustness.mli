(** Robustness of identifiability to failures.

    Monitoring is deployed precisely to survive trouble, so an operator
    needs to know {e which failures silently break the deployment}: after
    a link is withdrawn or a router goes down, does the monitor placement
    still identify every remaining link metric?

    A failed link is removed from the topology; a failed node is removed
    together with its incident links (a failed monitor also stops
    measuring). Identifiability of the surviving network is decided with
    the Section 7.1 topological tests. The surviving network can be
    disconnected, in which case it is unidentifiable whenever any
    surviving component has links but fewer than 2 monitors. *)

open Nettomo_graph

val survives_link_failure : Net.t -> Graph.edge -> bool
(** Whether the network minus the given link is still fully
    identifiable with the same monitors. Raises [Invalid_argument] if
    the link is absent. *)

val survives_node_failure : Net.t -> Graph.node -> bool
(** Whether the network minus the given node (monitor or not) is still
    fully identifiable with the surviving monitors. Raises
    [Invalid_argument] if the node is absent. *)

type report = {
  critical_links : Graph.EdgeSet.t;
      (** links whose failure breaks identifiability *)
  critical_nodes : Graph.NodeSet.t;
      (** nodes whose failure breaks identifiability *)
  total_links : int;
  total_nodes : int;
}

val analyze : Net.t -> report
(** Exhaustive single-failure sweep. Raises [Invalid_argument] when the
    intact network is not identifiable (by the same per-component test
    as the survivors): no failure can break what was never there. *)

val fraction_critical_links : report -> float
val fraction_critical_nodes : report -> float
val pp : Format.formatter -> report -> unit
