(** Triconnected components, following the construction in Section 7.2 of
    the paper: inside each biconnected component, repeatedly connect the
    two vertices of a minimal 2-vertex cut by a {e virtual link} and split
    the graph along the cut, until no component has a 2-vertex cut left.
    The resulting components are either 3-vertex-connected, polygons
    (cycles, reported whole), or triangles — this is the classical
    Hopcroft–Tarjan split decomposition up to bond components, which
    cannot arise in simple graphs.

    MMP (Algorithm 1) consumes this decomposition: its rule (iii) requires
    every triconnected component with ≥ 3 nodes to contain at least three
    nodes that are separation vertices or monitors. *)

type component = {
  nodes : Graph.NodeSet.t;
  edges : Graph.EdgeSet.t;  (** component links, virtual ones included *)
  virtuals : Graph.EdgeSet.t;  (** the virtual links among [edges] *)
}

val split_biconnected : Graph.t -> component list * Graph.edge list
(** Triconnected components of a biconnected graph (≥ 3 nodes, no cut
    vertex), with the graph's separation pairs. Raises
    [Invalid_argument] if the input has a cut vertex or is
    disconnected.

    One sweep lists the block's separation pairs in lexicographic order
    and its first search checks the input ({!Separation.block_pairs},
    whose span nests in this function's [graph.triconnected.split]);
    that list is the second half of the result, empty for a triangle.
    A part that is neither a triangle nor a polygon is cut along the
    first listed pair that still separates it: both ends in the part,
    and the part falls apart without them. A pair that fails is
    dropped, and the new parts get only the pairs after the one that
    cut. Every separation pair of a part is one of its parent's, so
    that pair is the part's lexicographically smallest, the one a fresh
    sweep of the part that stopped at its first pair would find: the
    components and their order are those of sweeping every part
    afresh. *)

type t = {
  blocks : (Biconnected.component * component list) list;
      (** Each biconnected component paired with its triconnected
          components. Blocks with fewer than 3 nodes have an empty
          component list. *)
  cut_vertices : Graph.NodeSet.t;
  separation_pairs : Graph.edge list;
      (** All minimal 2-vertex cuts, collected per block. *)
  separation_vertices : Graph.NodeSet.t;
      (** Cut-vertices plus members of minimal 2-vertex cuts — the
          "separation vertices" of Section 7.2. *)
}

val decompose : Graph.t -> t
(** Full decomposition of an arbitrary graph. *)

val assemble :
  Biconnected.result ->
  split:(Biconnected.component -> component list * Graph.edge list) ->
  t
(** The decomposition built from per-block pieces: [split] gives the
    triconnected components and the separation pairs of each block of
    3 nodes or more ({!split_biconnected} on the block's induced
    subgraph, as {!decompose} passes it, or any lookup that returns the
    same). Smaller blocks get no call. [split] runs once per block, in
    block order, and [separation_pairs] concatenates its pairs in that
    order. *)
