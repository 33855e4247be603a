(** Constructive measurement walks: exactly [|E|] independent
    measurements with no rank computation.

    The exact solver ({!Nettomo_core.Solver}) searches for independent
    simple paths and certifies each candidate with rational Gaussian
    elimination — correct, and the scaling wall of the repo. Following
    the efficient-identification line of work, this module instead
    {e constructs} a measurement family that is independent by design,
    off one BFS spanning tree of the network:

    - [r] is the smallest monitor, [s] the next smallest, [T] the
      deterministic BFS tree rooted at [r] (sorted adjacency rows of
      {!Nettomo_graph.Csr}, so the tree — and every walk below — is a
      pure function of the topology and monitor set). Write [t(v)] for
      the tree path [r → v] and [φ(v)] for its metric sum.
    - The {b trunk} [M_s = t(s)] measures [a = φ(s)].
    - A {b probe} per vertex [v ∉ {r, s}]:
      [M_v = t(v) · reverse(t(v)) · t(s)] measures [2·φ(v) + a].
    - A {b chord} walk per non-tree link [e = (u, v)]:
      [M_e = t(u) · e · reverse(t(v)) · t(s)] measures
      [φ(u) + w_e + φ(v) + a].

    That is [1 + (n-2) + (m-n+1) = m] measurements, and the system is
    triangular in [(a, φ, w_chord)] — {!Solve} recovers every link
    metric by substitution in [O(n + m)], no elimination. The walks
    are monitor-to-monitor edge sequences that may revisit nodes
    (controllable routing, as in the follow-up work's measurement
    model); the paper's simple-path machinery is untouched and remains
    the oracle for the identifiability question itself.

    Applicability: any connected network with at least two monitors —
    on such inputs the count is exactly [|E|] and recovery is unique. *)

open Nettomo_graph

type kind =
  | Trunk  (** the tree path [r → s] *)
  | Probe of int  (** out-and-back to a vertex (Csr index) *)
  | Chord of int  (** detour across a non-tree link (link index) *)

type t = private {
  csr : Csr.t;  (** the network's graph, flattened *)
  root : int;  (** Csr index of [r] *)
  second : int;  (** Csr index of [s] *)
  parent : int array;  (** BFS tree parent; [-1] at the root *)
  parent_eid : int array;  (** link index to the parent; [-1] at the root *)
  depth : int array;
  order : int array;  (** BFS visit order, root first *)
  kinds : kind array;  (** measurement row → walk kind; length [m] *)
  probe_row : int array;  (** Csr index → probe row, [-1] if none *)
  chord_row : int array;  (** link index → chord row, [-1] if tree link *)
}

val plan : Nettomo_core.Net.t -> (t, string) result
(** Build the walk family: flatten the network's graph once (the
    [measure.csr] span), then plan on its rows. [Error] when the network
    is disconnected or has fewer than two monitors. [O(n + m log n)]. *)

val n_measurements : t -> int
(** Always [Csr.m] — one measurement per link. *)

val walk_nodes : t -> int -> Graph.node list
(** The node sequence of measurement [i], in original identifiers;
    starts at [r] and ends at [s]. *)

val walk_eids : t -> int -> int list
(** The link-index sequence of measurement [i] (one entry per traversed
    link, with repetitions). *)

val measure : t -> float array -> float array
(** [measure t w] is the vector of end-to-end walk values given
    per-link metrics [w] indexed by link index — the simulated
    measurement campaign. [O(n + m)] via the tree potentials; with
    integer metrics the result is exactly the per-walk edge sum. *)

val simple_candidates :
  Csr.t -> monitor:bool array -> (int -> int array -> int -> unit) -> unit
(** Deterministic {e simple} measurement-path candidates harvested from
    the same spanning-tree machinery, for rank lower bounds under the
    paper's simple-path model (the seeds of [Coverage]'s sampled
    fallback). [simple_candidates csr ~monitor emit] walks the given
    flat graph, whose monitors are the indices [i] with [monitor.(i)].
    Per monitor root [r] — the first 8 monitors, smallest
    identifiers first — it emits the tree paths to every other
    reachable monitor, then the tree–chord–tree detours
    [r → u, (u,v), v → b] to other monitors [b] whose tail [v → b]
    avoids the stem [r → u], links in increasing order and each link
    as [(u,v)] then [(v,u)], taking the first 3 such monitors in
    increasing order per link orientation and root.

    Some detours are left out, each one spanned by the rows emitted
    before it for the same root. Write [A_x] for the tree path
    [x → r] as a row ([A_r = 0]) and [e_k] for link [k]'s. A detour
    across [k] whose tail climbs from [v] to [a = lca(v, b)] and
    descends to [b] is exactly [A_u + A_v + e_k + A_b − 2·A_a], in
    either orientation of [k], and [A_b] is a tree row already
    emitted. Two detours across [k] thus differ by a combination of
    tree rows and [2·(A_a − A_a')]. A union–find over the tree's
    nodes, reset per root, holds classes whose members' [A_x] differ
    by spanned rows: the root and the monitors of the tree rows start
    as one class, and each emitted detour across [k] after [k]'s first
    merges its meeting point's class with that of the first's. A later
    detour across [k] whose meeting point is already in the class of
    [k]'s first meeting point is never built; every other is emitted.
    What is left is the list above, in order, with some rows missing;
    the rank of each root's rows, and the answers of
    {!Nettomo_core.Solver}'s search seeded with them, are those of the
    whole list. Duplicates the rule does not catch stay.

    Each candidate is one call [emit r cols len], in that order: its
    link numbers are [cols.(0)] < … < [cols.(len - 1)], and it starts at
    [r]. [cols] is one buffer the generator reuses for every row, so it
    is only valid during the call — the contract of
    {!Nettomo_core.Solver.independent_paths}'s [seeds]. A detour's
    monitors are read off a per-root list of the 3 smallest monitors in
    each subtree, so the work per root is one pass over the tree, one
    LCA walk and class lookup per detour considered, and the links of
    the rows emitted. *)

(** Structural verification of a plan against its network, gated by
    {!Nettomo_util.Invariant}: every walk is a genuine monitor-to-
    monitor walk of the graph and the family has exactly one
    measurement per link. *)
module Invariant : sig
  val check : Nettomo_core.Net.t -> t -> unit
end
