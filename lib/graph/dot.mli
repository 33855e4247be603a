(** Graphviz export, for inspecting topologies, monitor placements and
    decompositions. *)

val to_dot : ?name:string -> ?highlight:Graph.NodeSet.t -> Graph.t -> string
(** DOT source for the graph, each node labelled with its number.
    Highlighted nodes (e.g. monitors) are drawn as filled boxes. *)

val write_file :
  ?name:string -> ?highlight:Graph.NodeSet.t -> string -> Graph.t -> unit
