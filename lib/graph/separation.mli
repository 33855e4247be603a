(** 2-vertex cuts (separation pairs) and 3-vertex-connectivity.

    Terminology follows the paper (Section 7.2, footnotes 9–10): a
    {e 2-vertex cut} is a pair [{a, b}] such that removing [a] or [b]
    alone leaves the graph connected but removing both disconnects it;
    the cut is {e minimal} when neither vertex is a cut-vertex. For a
    biconnected graph every 2-vertex cut is minimal, and these pairs are
    exactly the separation pairs along which the triconnected
    decomposition splits.

    The sweep method is used: [{v, u}] is a 2-vertex cut iff [u] is a
    cut-vertex of [G - v], giving all cuts in [O(|V|·(|V|+|L|))] time. *)

val cut_pairs : Graph.t -> Graph.edge list
(** All minimal 2-vertex cuts of a connected graph, as normalized node
    pairs (which need not be links), in lexicographic order. Runs under
    the [graph.separation.cut_pairs] span. *)

val is_three_vertex_connected : Graph.t -> bool
(** Whether the graph is 3-vertex-connected: at least 4 nodes, and
    [G - v] is connected and cut-vertex-free for every node [v]. This is
    the test used for Condition ② of Theorem 3.2 and for Theorem 3.3,
    and it runs under the [graph.three_connectivity] span. *)

(**/**)

(** {!cut_pairs} without its span, for {!Triconnected.split_biconnected},
    whose sweep belongs to its own span. Not part of the stable API. *)
module Internal : sig
  val cut_pairs : Graph.t -> Graph.edge list
end
