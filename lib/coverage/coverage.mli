(** Per-link identifiability, the maximal identifiable sub-network, and a
    greedy monitor-augmentation planner.

    The paper's verdict (Theorems 3.1/3.3) is all-or-nothing: a
    topology + monitor set either identifies every link metric or it
    does not. Operators with a constrained monitor budget ask the finer
    questions of the partial-identifiability follow-up line of work:
    {e which} links are identifiable under the current monitors, what is
    the maximal identifiable sub-network, and which monitor addition
    buys the most coverage.

    {!classify} answers the first two with a layered strategy: sound
    graph-structural rules decide as many links as possible without
    touching the measurement matrix, and only the links the structure
    cannot decide fall through to rank membership on the pruned
    measurement-relevant sub-network. Every structural rule is sound
    with respect to the rank semantics — a link is identifiable iff its
    unit vector lies in the row space of the measurement matrix over
    all simple monitor-to-monitor paths — so on graphs small enough for
    the exact fallback the report equals the exact oracle
    {!Nettomo_core.Identifiability.identifiable_links_bruteforce}, link
    for link.

    Structural layers, in order:
    + {e whole-network accept} — the network passes the paper's
      identifiability test (Theorems 3.1/3.3 on the extended graph, run
      on the classifier's flat graph and monitor flags by
      {!Nettomo_core.Identifiability.identifiable_flat}): every link is
      identifiable.
    + {e monitor-link accept} — a direct monitor–monitor link is a
      one-hop measurement path; its incidence row {e is} the unit
      vector.
    + {e low-degree reject} — a link incident to a non-monitor of
      degree 1 is on no measurement path; through a non-monitor of
      degree 2 every measurement path uses both incident links, so
      their columns are equal in every row and neither unit vector can
      be in the row space (rules (i)–(ii) of MMP, read per link).
    + {e unmeasurable reject} — a biconnected block that does not lie
      on the block-cut-tree path between any two monitors carries no
      measurement path at all; every one of its links has an
      identically zero column.
    + {e per-block conditions} — a measurement path's restriction to a
      block it crosses is one simple path between two distinct
      terminals of the block (its monitors plus the cut vertices with a
      monitor strictly beyond). Projecting rows onto the block's
      columns therefore lands inside the block-local measurement
      space, so membership there is {e necessary} for every block.
      When every terminal of the block is itself a real monitor the
      within-block terminal-pair paths are complete measurement paths
      of the full graph, making the condition {e sufficient} too — the
      block is then decided outright, by the paper's Theorem 3.1/3.3
      verdict on the block net (the block's flat restriction with its
      terminals as monitors) when it accepts the whole block, by
      block-local exact rank when the block has at most
      [exact_node_limit] nodes. Single-link blocks are skipped: the
      link always spans its own block space.
    + {e rank fallback} — remaining links are decided by row-space
      membership over the pruned sub-network (the union of the relevant
      blocks, which carries exactly the same measurement paths as the
      full graph): exact path enumeration up to [exact_node_limit]
      nodes, the sampled independent-path basis of
      {!Nettomo_core.Solver} (a lower bound) up to [rank_node_limit]
      nodes. Past that, exact rational elimination is the repo's
      scaling wall, so surviving links are conservatively reported
      unidentifiable ([Unresolved]) and the report is a sound lower
      bound, exactly like a sampled one. *)

open Nettomo_graph

(** How the undecided links were resolved. [Structural] means every
    link was decided by the structural rules alone and [Exact] that the
    exact rank fallback finished the job — both give the exact
    identifiable set. [Sampled] marks a lower bound (the sampled
    fallback ran, or the pruned sub-network exceeded [rank_node_limit]
    and the survivors were conservatively rejected): links reported
    identifiable always are, a link could in rare cases be missed. *)
type mode = Structural | Exact | Sampled

type reason =
  | Whole_network  (** accept: Theorem 3.1/3.3 holds for the whole network *)
  | Monitor_link  (** accept: direct monitor–monitor link *)
  | Low_degree  (** reject: incident to a non-monitor of degree < 3 *)
  | Unmeasurable  (** reject: block carries no monitor-to-monitor path *)
  | Block_theorem
      (** accept: all terminals are monitors and the block net passes
          Theorem 3.1/3.3 *)
  | Block_rank  (** decided by block-local rank (reject-only when some
                    terminal is a cut vertex) *)
  | Rank  (** decided by rank membership on the pruned sub-network *)
  | Unresolved
      (** reported unidentifiable because the pruned sub-network
          exceeds [rank_node_limit] — a conservative lower bound *)

type verdict = {
  identifiable : bool;
  reason : reason;
}

type report = {
  mode : mode;
  verdicts : verdict Graph.EdgeMap.t;  (** one verdict per link *)
  identifiable : Graph.EdgeSet.t;
  unidentifiable : Graph.EdgeSet.t;
}

val classify :
  ?seed:int ->
  ?exact_node_limit:int ->
  Nettomo_core.Net.t ->
  report
(** Classify every link. [seed] (default 0) drives the sampled fallback
    so reports are deterministic; [exact_node_limit] (default 12) is
    the pruned-subgraph size up to which the fallback enumerates
    exactly; [rank_node_limit], fixed at 160, is the size past which
    the rank fallback is skipped and surviving links become
    [Unresolved]. The
    fallback runs per connected component of the pruned sub-network —
    the limits bound each component, not their union — and its sampled
    layer is seeded with the constructive spanning-tree candidates of
    [Measure.Paths.simple_candidates], so partial monitor placements
    get a meaningful lower bound rather than one near zero.
    A small-but-dense component whose simple paths exceed the
    enumeration limit (e.g. K11 between two monitors) falls back to the
    sampled basis and the report to [Sampled]. The sampled basis is the
    one {!Nettomo_core.Solver.basis} grows during its search, so each
    component is eliminated once and no accepted row becomes a node
    path; the seeds are generated as link-number rows on the component's
    flat graph, less the detours the rows before them provably span,
    and the search's monitor-pair layer skips the seeds' roots, whose
    tree rows are already offered.
    Every rank verdict is read off its basis: an exact one with
    {!Nettomo_linalg.Basis.mem_unit}, a sampled one in O(1) with
    {!Nettomo_linalg.Zbasis.mem_unit}.

    Cost outside the rank tests: the network is flattened once
    ({!Nettomo_graph.Csr.of_graph}); the block-cut tree and
    connectivity come from one lowpoint DFS
    ({!Nettomo_graph.Biconnected.decompose_flat}), the terminals of
    every block from one pass over the blocks, the monitor-link,
    low-degree and unmeasurable rules from one loop over link numbers,
    and the fallback's components from one breadth-first search over
    the measurable links. Each component goes to the search as the
    restriction of the flat graph to its ascending links
    ({!Nettomo_graph.Csr.restrict}), so that its j-th link is column j;
    a persistent graph is built for it only when the search's random
    layer runs or the component is small enough for exact rank, and
    otherwise only for a block that the exact block rank examines. The
    report's maps and sets are built once, at the end. The
    whole-network test reads connectivity off the block–cut search and
    runs Theorems 3.1/3.3 on the flat graph
    ({!Nettomo_core.Identifiability.identifiable_flat}: with κ ≥ 3 a
    non-monitor of degree below 3 settles it, otherwise the flat
    extended graph goes to the linear-time 3-vertex-connectivity
    test); a block's theorem test runs the same entry on the block's
    restriction of the flat graph.
    Requires at least two monitors ([Invalid_argument] otherwise). *)

val coverage : report -> float
(** Fraction of links identifiable, in [\[0, 1\]]; 1.0 for a network
    with no links. *)

val reason_to_string : reason -> string
val mode_to_string : mode -> string
val pp : Format.formatter -> report -> unit

(** {1 Greedy monitor augmentation} *)

type plan = {
  requested : int;  (** the monitor budget [k] that was asked for *)
  added : Graph.node list;  (** chosen monitors, in greedy order *)
  coverage_before : float;
  coverage_after : float;
  full : bool;  (** the final placement identifies every link *)
}

val augment : ?seed:int -> k:int -> Nettomo_core.Net.t -> plan
(** Greedily add up to [k] monitors, each step taking the candidate
    with the greatest marginal structural coverage — the number of
    links freed from the sound reject rules (low degree,
    unmeasurable) — breaking ties by the largest drop in the MMP rule
    deficiencies (rules (iii)/(iv) vantage counts over the triconnected
    and biconnected components, and the κ ≥ 3 floor), then by
    preferring degree < 3 candidates (necessary monitors for full
    coverage), then by the smallest node identifier. The loop stops
    early once the placement identifies every link — detected exactly
    with the paper's per-component Theorem 3.1/3.3 test, never by
    sampling — so termination does not depend on the rank fallback.

    [coverage_before]/[coverage_after] are measured with {!classify}
    (same [seed], default limits); a network with fewer than two
    monitors has coverage 0.0 by convention, which also makes [augment]
    usable as a cold-start planner. [k] must be non-negative
    ([Invalid_argument] otherwise). Deterministic for fixed arguments. *)

val pp_plan : Format.formatter -> plan -> unit

(**/**)

(** Exposed for the tests, which compare it with a reference. Not part
    of the stable API. *)
module Internal : sig
  val structural_score : Nettomo_core.Net.t -> int
  (** {!augment}'s marginal score of the net's own monitor set: the
      links of blocks on a monitor-to-monitor path whose two endpoints
      are each a monitor or of degree ≥ 3. *)
end
