(** The extended graph [Gex] of Section 6 (Fig. 3): two virtual monitors
    [m'₁, m'₂], each connected to every real monitor by a virtual link.
    [G] itself becomes the interior graph of [Gex], which converts the
    κ-monitor identifiability question into the two-monitor interior
    question and yields Theorem 3.3: [G] is identifiable with κ ≥ 3
    monitors iff [Gex] is 3-vertex-connected.

    {!extend} builds [Gex] as a persistent graph, for the two-monitor
    reduction and for tests. Theorem 3.3's test
    ({!Identifiability.identifiable_flat}) builds it flat instead:
    [Csr.extend c monitor] of the flat graph [c] and its monitor flags
    gives the two virtual monitors the identifiers {!extend} gives them,
    so it equals [Csr.of_graph (extend net).graph], in
    [O(|V| + |L|)]. *)

open Nettomo_graph

type t = {
  graph : Graph.t;  (** [Gex] *)
  vm1 : Graph.node;  (** virtual monitor m'₁ *)
  vm2 : Graph.node;  (** virtual monitor m'₂ *)
}

val extend : Net.t -> t
(** Raises [Invalid_argument] if the network has no monitors. The virtual
    monitors receive fresh node identifiers from {!Graph.fresh_node}:
    above every existing node, unless that node is [max_int]. *)

val as_two_monitor_net : Net.t -> Net.t
(** The extended graph as a 2-monitor network on the virtual monitors —
    the reduction used by Lemma 6.1. *)
