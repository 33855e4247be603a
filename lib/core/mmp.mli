(** Minimum Monitor Placement — Algorithm 1 of the paper (Section 7.2).

    Given a connected topology, MMP selects the minimum number of
    monitors that makes every link metric identifiable (Theorem 7.1):

    + every node of degree < 3 (dangling nodes, tandem nodes) becomes a
      monitor — rules (i) and (ii);
    + every triconnected component with ≥ 3 nodes must contain at least
      3 nodes that are separation vertices or monitors — rule (iii);
    + every biconnected component with ≥ 3 nodes must contain at least 3
      nodes that are cut-vertices or monitors — rule (iv);
    + at least 3 monitors overall.

    Where the paper chooses "randomly", this implementation defaults to
    the smallest eligible node identifiers so that placements are
    deterministic; pass a generator for the paper's randomized choice
    (any choice yields the same monitor count). *)

open Nettomo_graph

type report = {
  monitors : Graph.NodeSet.t;  (** the full placement *)
  by_degree : Graph.NodeSet.t;  (** rules (i)–(ii): degree < 3 *)
  by_triconnected : Graph.NodeSet.t;  (** rule (iii) additions *)
  by_biconnected : Graph.NodeSet.t;  (** rule (iv) additions *)
  top_up : Graph.NodeSet.t;  (** additions to reach 3 monitors *)
}

val place : ?rng:Nettomo_util.Prng.t -> Graph.t -> Graph.NodeSet.t
(** The monitor set. Raises [Invalid_argument] on a disconnected or
    empty graph. On graphs with fewer than 3 nodes every node becomes a
    monitor. *)

val place_report : ?rng:Nettomo_util.Prng.t -> Graph.t -> report
(** The placement together with which rule selected each monitor:
    {!place_flat} on the flattened graph, each block split afresh
    ({!Triconnected.split_biconnected} of its induced subgraph). *)

val place_flat :
  ?rng:Nettomo_util.Prng.t ->
  Csr.t ->
  split:
    (nodes:int array ->
    links:int array ->
    Triconnected.component list * Graph.edge list) ->
  report
(** The one implementation of the placement, on a flattened graph
    whose blocks are split by the caller. One lowpoint search
    ({!Biconnected.decompose_flat}) gives connectivity, the blocks and
    the cut vertices; {!Biconnected.members} gives each block's nodes
    and ascending links; degrees are read off the rows. [split] runs
    once per block of 3 nodes or more, in {!Biconnected.decompose}'s
    block order (the last block the search closes first), with that
    block's node indices and link numbers, and must return what
    {!Triconnected.split_biconnected} returns on the block's induced
    subgraph — the session answers it from its per-block cache. The
    separation vertices are then a flag per node: the cut vertices and
    both ends of every block's separation pairs. Rules (iii) and (iv)
    visit the blocks in the same order, and every pick draws from
    ascending identifiers, so the report (and the generator's draws)
    are those of the placement over {!Triconnected.decompose}. Raises
    [Invalid_argument] on an empty or disconnected graph, before any
    [split]. *)

val as_net : ?rng:Nettomo_util.Prng.t -> Graph.t -> Net.t
(** The graph equipped with MMP's placement. *)
