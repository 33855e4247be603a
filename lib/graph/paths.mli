(** Simple paths: validation, exhaustive enumeration, randomized sampling.

    A path is a node sequence [v0; v1; …; vk] with all nodes distinct and
    every consecutive pair linked — the "controllable, cycle-free
    measurement paths" of the paper. Exhaustive enumeration is exponential
    in general; it is meant for small graphs (ground-truth identifiability
    checks), with a hard [limit] guard. Randomized sampling is the
    workhorse for constructing measurement paths on larger networks. *)

type path = Graph.node list

val is_simple_path : Graph.t -> path -> bool
(** Whether the sequence is a simple path of the graph with ≥ 2 nodes. *)

val path_edges : path -> Graph.edge list
(** Links traversed by a path, normalized. Raises [Invalid_argument] on
    sequences shorter than 2 nodes or with repeated consecutive nodes. *)

val length : path -> int
(** Number of links (nodes minus one). *)

exception Limit_exceeded

val all_simple_paths :
  ?limit:int -> Graph.t -> Graph.node -> Graph.node -> path list
(** Every simple path between two distinct nodes, by backtracking DFS.
    Raises {!Limit_exceeded} if more than [limit] (default 200,000) paths
    exist — enumeration is exponential, keep inputs small. *)

val iter_simple_paths :
  Graph.t -> Graph.node -> Graph.node -> (path -> unit) -> unit
(** The enumeration behind {!all_simple_paths} at its default limit,
    without the list: each path goes to the callback as the search
    finds it, in the same order but reversed (the second endpoint
    first). Raises {!Limit_exceeded} on path 200,001, after passing
    the first 200,000. *)

val random_simple_path :
  Nettomo_util.Prng.t -> Graph.t -> Graph.node -> Graph.node -> path option
(** A simple path found by randomized depth-first search (random
    neighbor order, permanent visit marks — linear time). Returns
    [None] iff no path exists. The distribution is biased but varied,
    which is all the incremental basis construction needs. *)
