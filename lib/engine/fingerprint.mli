(** Incremental structural fingerprints for the dynamic engine.

    A fingerprint is the XOR of one SplitMix64-finalized hash per node,
    per link and per monitor, split into a {e structure} part (nodes and
    links) and a {e monitors} part so that analyses depending only on
    the topology (decompositions, MMP) can be keyed by the structure
    half alone. XOR makes every update an involution — adding and
    removing an element are the same O(1) toggle — and makes the
    fingerprint independent of the order in which the graph was built,
    so two sessions that reach the same network by different delta
    streams share cache entries.

    Fingerprints are 64-bit content hashes, not proofs of equality: a
    collision would let the engine serve a cached answer for a
    different graph. The probability is ~[s²/2⁶⁴] over [s] distinct
    states; the [NETTOMO_CHECK] differential invariant
    ({!Session.create}) re-derives every answer from scratch and would
    surface such a collision. *)

open Nettomo_graph

type t = { structure : int64; monitors : int64 }

val with_node : t -> Graph.node -> t
(** Toggle a node in the structure part (involutive). *)

val with_edge : t -> Graph.node -> Graph.node -> t
(** Toggle a link; endpoint order does not matter. *)

val with_monitor : t -> Graph.node -> t
(** Toggle a monitor in the monitors part. *)

val with_monitor_set : t -> Graph.NodeSet.t -> t
(** Replace the monitors part wholesale — O(κ). *)

val of_graph : Graph.t -> int64
(** Structure hash of a whole graph (nodes and links). *)

val of_component : Graph.NodeSet.t -> Graph.EdgeSet.t -> int64
(** Structure hash of an explicit node/link set. Equals {!of_graph} of
    the graph with exactly those nodes and links. *)

val of_block : Csr.t -> nodes:int array -> links:int array -> int64
(** {!of_component} of a block of a flattened graph, given by its node
    indices and link numbers ({!Biconnected.members}), without building
    the sets: the session's per-block cache key. *)

val of_net : Nettomo_core.Net.t -> t
(** Fingerprint of a network: structure of its graph, monitors part of
    its monitor set. *)

val structure : t -> int64
val monitors : t -> int64

val equal : t -> t -> bool

val to_string : t -> string
(** Hex rendering ["ssssssssssssssss:mmmmmmmmmmmmmmmm"]. *)
