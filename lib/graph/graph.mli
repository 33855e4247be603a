(** Undirected simple graphs over integer node identifiers.

    This is the topology model of the paper (Section 2.1): an undirected
    graph with no self-loops and at most one link per node pair; links
    [uv] and [vu] are the same link. Node identifiers are arbitrary
    integers — they need not be contiguous — so that derived graphs
    (interior graphs, extended graphs with virtual monitors) can reuse the
    identifiers of the original network.

    The structure is persistent: all operations return new graphs and
    never mutate their argument. Traversal-heavy algorithms should convert
    to the flat {!Csr} form once and work there. *)

type node = int

module NodeSet : Set.S with type elt = node
module NodeMap : Map.S with type key = node

type edge = node * node
(** A link, normalized so the smaller endpoint comes first. All functions
    accepting an edge or an endpoint pair normalize internally; all
    functions returning edges return them normalized. *)

val edge : node -> node -> edge
(** [edge u v] is the normalized link between [u] and [v].
    Raises [Invalid_argument] if [u = v] (self-loops are not allowed). *)

val edge_compare : edge -> edge -> int
val edge_equal : edge -> edge -> bool
val pp_edge : Format.formatter -> edge -> unit

module EdgeSet : Set.S with type elt = edge
module EdgeMap : Map.S with type key = edge

type t

val empty : t
val is_empty : t -> bool

val add_node : t -> node -> t
(** Add an isolated node (no-op if present). *)

val add_edge : t -> node -> node -> t
(** Add a link, implicitly adding missing endpoints. No-op if the link is
    already present. Raises [Invalid_argument] on self-loop. *)

val remove_edge : t -> node -> node -> t
(** Remove a link, keeping its endpoints. No-op if absent. *)

val remove_node : t -> node -> t
(** Remove a node and every link incident to it ([G - v] in the paper). *)

val of_edges : ?nodes:node list -> (node * node) list -> t
(** Build a graph from an edge list, plus optional extra isolated nodes. *)

val mem_node : t -> node -> bool
val mem_edge : t -> node -> node -> bool

val n_nodes : t -> int
(** [|G|] in the paper: number of nodes. *)

val n_edges : t -> int
(** [||G||] in the paper: number of links. *)

val nodes : t -> node list
(** Nodes in increasing order. *)

val node_set : t -> NodeSet.t
val node_array : t -> node array

val edges : t -> edge list
(** Normalized links, in lexicographic order. *)

val edge_set : t -> EdgeSet.t

val neighbors : t -> node -> NodeSet.t
(** Neighbors of a node; empty set if the node is absent. *)

val neighbor_list : t -> node -> node list

val degree : t -> node -> int

val incident_edges : t -> node -> edge list
(** [L(v)] in the paper: links incident to [v]. *)

val fold_nodes : (node -> 'a -> 'a) -> t -> 'a -> 'a
val iter_nodes : (node -> unit) -> t -> unit
val fold_edges : (edge -> 'a -> 'a) -> t -> 'a -> 'a
val iter_edges : (edge -> unit) -> t -> unit

val induced : t -> NodeSet.t -> t
(** Sub-graph induced by a node set: those nodes and every link of the
    graph with both endpoints inside the set. *)

val remove_nodes : t -> NodeSet.t -> t
(** [G] minus a whole node set and all incident links. *)

val min_degree : t -> int
(** Smallest node degree; raises [Invalid_argument] on an empty graph. *)

val max_degree : t -> int

val fresh_node : t -> node
(** An identifier not in the graph: one more than the largest node (0
    when empty) or, when the largest node is [max_int], the smallest
    free identifier. Used to mint virtual monitors. *)

val equal : t -> t -> bool
(** Equality of node sets and link sets. *)

val pp : Format.formatter -> t -> unit

(** Verification of the representation invariants, part of the debug
    invariant layer (see {!Nettomo_util.Invariant}). *)
module Invariant : sig
  val check : t -> unit
  (** Verify adjacency symmetry, absence of self-loops, and the
      degree-sum / cached-link-count accounting. Raises
      [Nettomo_util.Invariant.Violation] describing the first breach.
      Unconditional — callers gate it with
      [Nettomo_util.Invariant.check]. *)

  (** Deliberately corrupted graphs for exercising {!check} in tests.
      Never use outside tests: the results violate the representation
      invariants every other function relies on. *)
  module Testing : sig
    val with_edge_count : t -> int -> t
    (** Override the cached link count. *)

    val with_half_edge : t -> node -> node -> t
    (** Record [v] as a neighbor of [u] without the converse. *)

    val with_self_loop : t -> node -> t
    (** Add [v] to its own neighbor set. *)
  end
end
