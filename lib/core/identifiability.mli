(** Identifiability tests — the paper's main results (Sections 3–7.1).

    Terminology: a link is {e identifiable} if its metric is uniquely
    determined by end-to-end measurements over simple paths between
    monitors; the network is identifiable if every link is. Via the
    linear system [R·w = c], the network is identifiable iff [rank R]
    over all measurable simple paths equals the number of links, and a
    single link is identifiable iff its unit vector lies in the row space
    of [R].

    The topological tests below decide these properties without
    enumerating paths:
    - {!network_identifiable} implements Theorem 3.1 (two monitors never
      suffice beyond a single link) and Theorem 3.3 (κ ≥ 3 monitors
      suffice iff the extended graph is 3-vertex-connected);
    - {!interior_identifiable_two} implements Theorem 3.2 for the
      interior graph under two monitors.

    The brute-force functions compute the ground truth by exact rank
    over every simple path; they are exponential and exist to validate
    the topological conditions and to answer per-link questions on small
    networks. *)

open Nettomo_graph

val network_identifiable : Net.t -> bool
(** Whether every link metric is identifiable. Requires a connected
    graph with at least one link; raises [Invalid_argument] otherwise.
    With κ < 2 the answer is always [false]; with κ = 2 it is [true]
    only for the single-link network whose endpoints are the two
    monitors (Theorem 3.1); with κ ≥ 3 it is Theorem 3.3's test. The
    network is flattened once and handed to {!identifiable_flat}. *)

val identifiable_flat : Csr.t -> monitor:bool array -> bool
(** {!network_identifiable} on a network given as its flat graph and
    its monitor flags by index, for callers that hold that form and
    have settled the preconditions: it checks neither connectivity nor
    the link count. κ is the number of flags set. With κ ≥ 3 a
    non-monitor of degree below 3 settles [false] in [O(|V|)];
    otherwise [Gex] is built flat ([Csr.extend c monitor], see
    {!Extended}) and tested with
    {!Separation.is_three_vertex_connected_flat}, in
    [O(|V| + |L|)]. No persistent graph is built. *)

val extended_three_connected : Net.t -> bool
(** Theorem 3.3's condition: whether the extended graph [Gex]
    ({!Extended.extend}) is 3-vertex-connected. On a connected network
    with at least one link and κ ≥ 3 monitors this is
    {!network_identifiable}; it checks none of those preconditions, for
    callers that have settled them already. With κ ≥ 3 it is
    {!identifiable_flat} of the flattened network; with κ = 1 or 2 it
    is [false] (a virtual monitor has degree κ). Raises
    [Invalid_argument] when the network has no monitors. *)

type two_monitor_failure =
  | Condition1 of Graph.edge
      (** [G - l] is not 2-edge-connected for this interior link [l]. *)
  | Condition2  (** [G + m₁m₂] is not 3-vertex-connected. *)

val interior_identifiable_two : Net.t -> bool
(** Theorem 3.2: with exactly two monitors, whether every interior link
    is identifiable. A direct monitor-monitor link is allowed (it is
    identifiable by a one-hop measurement and ignored, per Section 4);
    a disconnected interior graph is handled by decomposing into the
    [Gᵢ] sub-networks of Section 5 and testing each. Networks with no
    interior links are vacuously identifiable. Raises
    [Invalid_argument] unless the network is connected with exactly two
    monitors. *)

val interior_two_failures : Net.t -> two_monitor_failure list
(** The witnesses for which {!interior_identifiable_two} fails: failing
    interior links for Condition ① and/or [Condition2], across the
    [Gᵢ] decomposition. Empty iff identifiable. *)

val pp_failure : Format.formatter -> two_monitor_failure -> unit

(** {1 Ground truth by exact rank} *)

val measurement_basis : Net.t -> Nettomo_linalg.Basis.t
(** Row-space basis of the measurement matrix over {e all} simple paths
    between all monitor pairs, columns in [Measurement.link_order].
    Pairs are taken in [Net.monitor_pairs] order and the search stops
    after the pair that makes the basis full. Each path is eliminated
    as the enumerator finds it, so no path list is held. Exponential;
    raises [Paths.Limit_exceeded] when a pair it reaches has more than
    200,000 simple paths. *)

val identifiable_links_bruteforce : Net.t -> Graph.EdgeSet.t
(** Exactly the identifiable links, by row-space membership of each unit
    vector. *)

val network_identifiable_bruteforce : Net.t -> bool
