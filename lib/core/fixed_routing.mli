(** Monitor placement under {e uncontrollable} routing — the contrasting
    regime of the paper's related work (references [22, 23]).

    The paper's MMP solves placement in linear time because monitors can
    steer measurement packets over any cycle-free path. If instead the
    network routes every packet along a fixed (shortest) path — the
    standard IP situation — each monitor pair contributes exactly one
    measurement row, and placing the minimum number of monitors to
    identify all links is NP-hard. This module implements that regime:
    deterministic shortest-path routing, the rank attained by a
    placement, a greedy heuristic placement, and an exhaustive optimum
    for small networks — giving the library a baseline to quantify how
    much controllable routing buys (see the [ablation] benchmark).

    Under fixed routing, full identifiability is usually impossible no
    matter the placement (links off every shortest path are never
    measured), so results are expressed as attained rank / identifiable
    links rather than a yes/no. *)

open Nettomo_graph

val route : Graph.t -> Graph.node -> Graph.node -> Paths.path option
(** The fixed route between two nodes: the BFS shortest path with
    deterministic (smallest-identifier) tie-breaking. Symmetric:
    [route g u v] is the reverse of [route g v u]. *)

val measurement_paths : Graph.t -> monitors:Graph.node list -> Paths.path list
(** The routes between all monitor pairs (one per unordered pair). *)

val rank_of : Graph.t -> monitors:Graph.node list -> int
(** Rank of the fixed-routing measurement matrix of the placement. *)

val identifiable_links : Graph.t -> monitors:Graph.node list -> Graph.EdgeSet.t
(** Links whose metric the placement determines uniquely. *)

val greedy_place : Graph.t -> Graph.node list
(** Greedy heuristic: repeatedly add the monitor that maximizes the rank
    of the measurement matrix, until {!max_rank} is reached or no
    candidate improves it. Returns monitors in selection order. *)

val max_rank : Graph.t -> int
(** Rank attained when every node is a monitor — the best fixed routing
    can ever do on this topology. *)

val optimal_kappa_bruteforce : Graph.t -> int option
(** Smallest placement size attaining {!max_rank}, by exhaustive search
    over all subsets of nodes. Exponential; small graphs only. *)
