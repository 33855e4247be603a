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

(** {1 On a flattened graph} *)

(** The blocks with at least one link, by {!Csr} node index and link
    number, as the one lowpoint depth-first search finds them: it takes
    roots in increasing index order and scans each row in order. Blocks
    are numbered in the order the search closes them, so a block comes
    after every block that hangs below it in the block-cut tree rooted
    at the search roots. *)
type flat = {
  n_blocks : int;
  block_of_link : int array;  (** link number → its block *)
  head : int array;
      (** block → the node through which the search entered it: the one
          node of the block that is not below it. Every other node of
          the block is a descendant of the search's link out of its
          head. *)
  is_cut : bool array;  (** node index → whether it is a cut vertex *)
  component : int array;
      (** node index → its connected component, numbered in the order
          of the search roots *)
  n_components : int;
      (** connected components, isolated nodes included *)
}

val decompose_flat : Csr.t -> flat
(** The search behind {!decompose}, on a graph already flattened, run
    under the same [graph.biconnected] span. Linear time. *)

(** Each block's links and nodes, by block number. Block [b] of
    {!decompose}'s list (past its isolated nodes, which come first) is
    flat block [n_blocks - 1 - b]: the search's last closed block comes
    first. *)
type members = {
  links : int array array;  (** block → its link numbers, ascending *)
  nodes : int array array;
      (** block → its node indices: its head first, then its links'
          endpoints in order of first appearance *)
}

val members : Csr.t -> flat -> members
(** The members of every block of [flat], which must be
    [decompose_flat] of the given graph. Linear time, no search. *)

(** {1 Work counters} *)

val dfs_runs : Nettomo_obs.Obs.Metrics.counter
(** [graph_lowpoint_dfs_total]: lowpoint searches run — one per
    {!decompose}, {!decompose_flat}, {!is_biconnected} and {!Bridges}
    query, one per graph that the cut-pair sweeps of {!Separation}
    search ([G] itself and each [G - v] they try), and one per
    depth-first pass of its 3-vertex-connectivity test (at most
    three). *)

val adjacency_scanned : Nettomo_obs.Obs.Metrics.counter
(** [graph_adjacency_scanned_total]: the half-edges those searches
    scanned; a search that stops early counts only what it scanned.
    Both counters are process-wide and deterministic for a given
    input. *)

(**/**)

(** Low-level entry points over {!Csr} rows: the search without its
    span for {!Bridges}, which reads the bridges off the single-link
    blocks, and the search cut down to cut vertices and connectivity for
    {!Separation}'s sweeps over every [G - v], which flatten the graph
    once. Each search adds one run to the [graph_lowpoint_dfs_total]
    counter and the half-edges it scanned to
    [graph_adjacency_scanned_total]. Not part of the stable API. *)
module Internal : sig
  val decompose_csr : Csr.t -> flat
  (** {!decompose_flat} without the span. *)

  val cut_vertices_without : Csr.t -> bool array * (int -> int)
  (** [let is_cut, search = cut_vertices_without c] allocates the
      search's buffers once; [search skip] marks in [is_cut], by index,
      the cut vertices of the graph minus the index [skip] ([-1] for
      none) and returns its number of connected components. It keeps
      no edge stack, builds no block and allocates nothing. The next
      search overwrites [is_cut], so one search at a time. *)
end
