(** A monitored network: the topology together with the set of monitors
    (Section 2.1 of the paper). Monitors can initiate and collect
    measurements over controllable, cycle-free paths; all other nodes
    are ordinary internal nodes. *)

open Nettomo_graph

type t

val create :
  ?labels:string Graph.NodeMap.t -> Graph.t -> monitors:Graph.node list -> t
(** Raises [Invalid_argument] if a monitor is not a node of the graph or
    the monitor list contains duplicates. *)

val graph : t -> Graph.t
val monitors : t -> Graph.NodeSet.t
val monitor_list : t -> Graph.node list
val kappa : t -> int
(** Number of monitors (κ in the paper). *)

val is_monitor : t -> Graph.node -> bool
val non_monitors : t -> Graph.NodeSet.t
val labels : t -> string Graph.NodeMap.t
val label : t -> Graph.node -> string
(** The node's label, falling back to its numeral. *)

val with_monitors : t -> Graph.node list -> t
(** Same topology, different monitor set. *)

val monitor_pairs : t -> (Graph.node * Graph.node) list
(** All unordered monitor pairs — the possible measurement endpoints. *)
