(** 2-vertex cuts (separation pairs) and 3-vertex-connectivity.

    Terminology follows the paper (Section 7.2, footnotes 9–10): a
    {e 2-vertex cut} is a pair [{a, b}] such that removing [a] or [b]
    alone leaves the graph connected but removing both disconnects it;
    the cut is {e minimal} when neither vertex is a cut-vertex. For a
    biconnected graph every 2-vertex cut is minimal, and these pairs are
    exactly the separation pairs along which the triconnected
    decomposition splits.

    Listing the pairs uses the sweep method: [{v, u}] is a 2-vertex cut
    iff [u] is a cut-vertex of [G - v], giving all cuts in
    [O(|V|·(|V|+|L|))] time. Deciding whether there is any, which is
    3-vertex-connectivity, takes linear time: Hopcroft and Tarjan's path
    search (1973), with Gutwenger and Mutzel's corrections (2001),
    stopped at the first pair it detects. *)

val cut_pairs : Graph.t -> Graph.edge list
(** All minimal 2-vertex cuts of a connected graph, as normalized node
    pairs (which need not be links), in lexicographic order. Runs under
    the [graph.separation.cut_pairs] span. *)

val block_pairs : Graph.t -> Graph.edge list option
(** [Some (cut_pairs g)] when [g] is biconnected (at least 3 nodes,
    connected, no cut vertex), [None] otherwise. The sweep's own first
    search, of [g] itself, decides it, so a block costs one flattening
    and [|V| + 1] lowpoint searches (one for a triangle), under the
    same span. {!Triconnected.split_biconnected} runs this once per
    block, so the span nests in [graph.triconnected.split] and
    bench/suite's [graph.cut_pairs.*] measures the split's own sweep. *)

val is_three_vertex_connected : Graph.t -> bool
(** Whether the graph is 3-vertex-connected: at least 4 nodes, and no
    set of at most two nodes whose removal disconnects it. This is the
    test used for Condition ② of Theorem 3.2 and for Theorem 3.3. It
    flattens the graph once and runs {!is_three_vertex_connected_flat}'s
    test, under the same span. *)

val is_three_vertex_connected_flat : Csr.t -> bool
(** The same test on a graph already flattened, in [O(|V| + |L|)],
    under the [graph.three_connectivity] span:
    - fewer than 4 nodes: [false];
    - a node of degree below 3: [false], with no search;
    - one depth-first pass builds the palm tree with its lowpoints,
      descendant counts and parents, which settles connectivity and cut
      vertices;
    - the arcs are bucket-sorted by Hopcroft and Tarjan's φ, a second
      pass numbers the paths, and a third, the path search, stops at
      the first type-1 or type-2 separation pair.

    Each pass counts one run in [graph_lowpoint_dfs_total] and its
    scanned arcs in [graph_adjacency_scanned_total]. Under
    {!Nettomo_util.Invariant} a [false] answer is checked by one
    breadth-first search: removing the separation pair, the cut vertex
    or the low-degree node's neighbours must disconnect the graph. *)
