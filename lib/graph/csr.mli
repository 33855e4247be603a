(** Flat integer-indexed adjacency (compressed sparse row): the one
    array form of a {!Graph.t}, for every algorithm that walks the
    adjacency many times.

    {!Graph.t} is persistent and pointer-rich — right for the
    incremental engine, too boxed for tight traversals. [of_graph]
    re-indexes a graph once into plain [int array]s:
    - nodes become [0 … n-1] in increasing order of their identifiers,
      so index order is identifier order;
    - the neighbours of node [i] sit, sorted, in one contiguous slice
      [adj.(xadj.(i)) … adj.(xadj.(i+1) - 1)] of a shared array;
    - links become [0 … m-1] in lexicographic order, the order of
      {!Graph.edges} and of the measurement-matrix columns
      ([Measurement.link_order]); both half-edges of a link carry its
      number in [eid], and its endpoints are read back in O(1). *)

type t = private {
  n : int;  (** number of nodes *)
  m : int;  (** number of links *)
  ids : Graph.node array;  (** index → identifier, strictly increasing *)
  xadj : int array;  (** length [n+1]; row offsets into [adj] and [eid] *)
  adj : int array;  (** length [2m]; neighbour indices, sorted per row *)
  eid : int array;
      (** length [2m]; [eid.(k)] is the link number of the half-edge
          [adj.(k)] — both directions of a link share one number *)
  ends : int array;
      (** length [2m]; link [k] joins [ends.(2k) < ends.(2k+1)] *)
}

val of_graph : Graph.t -> t
(** One-shot conversion, [O(n + m log n)]. A neighbour's index is its
    offset from the first identifier when the identifiers are
    consecutive integers (every generated map), and is binary-searched
    otherwise. Under {!Nettomo_util.Invariant} the result is verified
    with {!Invariant.check}. *)

val index : t -> Graph.node -> int
(** Identifier → index, [O(log n)]. Raises [Invalid_argument] for a node
    not in the graph. *)

val find : t -> Graph.node -> int
(** Identifier → index, or [-1] for a node not in the graph;
    [O(log n)]. *)

val half_edge : t -> int -> Graph.node -> int
(** [half_edge t i v] is the position in [adj] and [eid] of the
    half-edge from index [i] to the neighbour with identifier [v], or
    [-1] when [v] is not a neighbour of [i] (or not a node at all);
    [O(log deg i)]. Walking a path given by identifiers this way needs
    no identifier lookup past its first node. *)

val endpoints : t -> int -> int * int
(** Link number → its endpoint indices, smaller first. *)

val edge : t -> int -> Graph.edge
(** Link number → the normalized link in identifiers. *)

val restrict : t -> int array -> t
(** [restrict t links] is the flat form of the subgraph made of the
    links numbered [links], which must be strictly ascending: its nodes
    are those links' endpoints, in index order, and link [links.(i)]
    becomes its link [i]. Index order is identifier order and link
    numbers are lexicographic, so this equals [of_graph] of that
    subgraph ([Graph.of_edges] of its links), built without a
    persistent graph: two index maps as long as [t]'s node and link
    counts, then [O(d + n' log n')] for the [n'] nodes kept, whose rows
    in [t] hold [d] half-edges. Raises [Invalid_argument] unless
    [links] are strictly ascending link numbers of [t]. *)

val extend : t -> bool array -> t
(** [extend t linked] is [t] plus two new nodes, each linked to every
    node [i] with [linked.(i)]: the first new identifier is
    {!Graph.fresh_node} of [t]'s graph, the second {!Graph.fresh_node}
    of that graph plus the first. So it equals [of_graph] of the
    persistent graph grown that way, built in [O(n + m)] from the flat
    form alone. Requires [Array.length linked = t.n]. *)

(** A breadth-first search tree, by index. *)
type tree = {
  parent : int array;  (** tree parent; [-1] at the root and off the tree *)
  parent_eid : int array;  (** link number to the parent; [-1] likewise *)
  depth : int array;  (** hops from the root; [-1] when unreached *)
  order : int array;  (** visit order, root first; [-1]-padded past [reached] *)
  reached : int;  (** nodes visited, the root included *)
}

val bfs : t -> int -> tree
(** [bfs t root] searches from index [root] with a FIFO queue, scanning
    each row in its sorted order and fixing a node's parent at its first
    discovery. That is the tree [Traversal.shortest_path] walks on the
    persistent graph, so the tree path from [root] to any node is the
    very path it returns. [O(n + m)]. *)

(** Verification of the flat form against its source graph, part of the
    debug invariant layer (see {!Nettomo_util.Invariant}). *)
module Invariant : sig
  val check : Graph.t -> t -> unit
  (** Node and link counts, increasing identifiers that are all nodes of
      the graph, sorted rows whose half-edges are all links of the
      graph, and a lexicographic link numbering shared by both
      half-edges of each link. Raises [Nettomo_util.Invariant.Violation]
      on the first breach; unconditional. *)
end
