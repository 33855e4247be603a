(** Cut vertices and biconnected components (Tarjan 1972, the paper's
    reference [29] for line 2 of Algorithm 1 / MMP).

    Following the paper's Definition 5 with k = 2, the biconnected
    components ("blocks") of a graph are its maximal 2-vertex-connected
    sub-graphs together with its bridges (complete graphs on 2 nodes) and
    isolated nodes (complete graphs on 1 node). Every link belongs to
    exactly one block; blocks intersect only at cut vertices. *)

type component = {
  nodes : Graph.NodeSet.t;
  edges : Graph.EdgeSet.t;
}

type result = {
  components : component list;
  cut_vertices : Graph.NodeSet.t;
}

val decompose : Graph.t -> result
(** Blocks and cut vertices of the whole graph, over every connected
    component. Linear time. *)

val cut_vertices : Graph.t -> Graph.NodeSet.t
(** Just the cut vertices. *)

val is_biconnected : Graph.t -> bool
(** 2-vertex-connectivity: ≥ 3 nodes, connected, and no cut vertex. *)

(**/**)

(** Low-level entry points over {!Csr} rows, shared with {!Separation}
    so that a sweep over every [G - v] flattens the graph once, and with
    {!Bridges}, which reads the bridges off the single-link blocks. Not
    part of the stable API. *)
module Internal : sig
  val decompose_csr :
    Csr.t ->
    skip_node:int option ->
    (int * int) list list * bool array * int list * int
  (** [(blocks as Csr-index edge lists, is-cut-vertex array, isolated
      visited roots, connected-component count)] of the graph minus the
      skipped index. *)

  val connected_and_cut_free : Csr.t -> int option -> bool
  (** Whether the graph minus the skipped index is connected and has no
      cut vertex (no constraint on its size) — the building block of the
      3-vertex-connectivity sweep: [G] with ≥ 4 nodes is
      3-vertex-connected iff this holds with every node skipped. *)
end
