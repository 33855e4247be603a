(** Random topology generators.

    The four models of Section 7.3.1 — Erdős–Rényi (ER), Random Geometric
    (RG), Barabási–Albert (BA) and Random Power-Law (PL) — with the
    paper's exact constructions, plus deterministic fixtures used by
    tests and examples. All generators number nodes [0 … n-1] and are
    driven by {!Nettomo_util.Prng}, so experiments are reproducible. *)

open Nettomo_graph
open Nettomo_util

val erdos_renyi : Prng.t -> n:int -> p:float -> Graph.t
(** Each of the [n·(n-1)/2] node pairs is linked independently with
    probability [p]. May be disconnected. *)

val erdos_renyi_sparse : Prng.t -> n:int -> p:float -> Graph.t
(** The same model realized by geometric skip-sampling over the pair
    space — [O(n + m)] expected instead of [O(n²)], for the sparse
    regime at [10⁴+] nodes. Deterministic for a fixed seed, but the
    draw stream (and hence the realization) differs from
    {!erdos_renyi} at the same seed. Requires [p ∈ [0, 1)]. *)

val random_geometric : Prng.t -> n:int -> radius:float -> Graph.t
(** Nodes placed uniformly in the unit square; two nodes are linked iff
    their Euclidean distance is at most [radius]. *)

val random_geometric_with_coords :
  Prng.t -> n:int -> radius:float -> Graph.t * (float * float) array

val barabasi_albert : Prng.t -> n:int -> nmin:int -> Graph.t
(** Preferential attachment starting from the paper's seed graph
    [G₀ = ({v1..v4}, {v1v2, v1v3, v1v4})]: each new node attaches to
    [nmin] distinct existing nodes chosen with probability proportional
    to degree (to all existing nodes when fewer than [nmin] exist).
    Always connected. Requires [n ≥ 4] and [nmin ≥ 1]. *)

val power_law : Prng.t -> n:int -> alpha:float -> Graph.t
(** Chung–Lu random power-law graph: expected degrees [dᵢ = i^α]
    (1-based), nodes [i] and [j] linked with probability
    [min(1, dᵢ·dⱼ / Σₖ dₖ)]. May be disconnected. *)

val waxman : Prng.t -> n:int -> alpha:float -> beta:float -> Graph.t
(** Waxman random graph: nodes uniform in the unit square, each pair
    linked with probability [beta · exp(−d / (alpha · √2))] where [d] is
    the pair's Euclidean distance. A classic model for router-level
    topologies; may be disconnected. Requires [alpha, beta ∈ (0, 1]]. *)

val waxman_sparse : Prng.t -> n:int -> alpha:float -> beta:float -> Graph.t
(** The Waxman model by thinning: candidate pairs are skip-sampled at
    rate [beta] and kept with the conditional probability
    [exp(−d / (alpha · √2))] — [O(n + m_candidates)] expected, for
    ISP-density graphs at [10⁴+] nodes. The draw stream differs from
    {!waxman} at the same seed. Requires [alpha ∈ (0, 1]],
    [beta ∈ (0, 1)]. *)

exception Retries_exhausted of { tries : int }
(** No connected realization appeared within the retry budget — the
    generator parameters are too sparse for the requested size. *)

val until_connected : (unit -> Graph.t) -> Graph.t
(** Repeatedly draw from the thunk until a connected realization appears
    (the paper discards disconnected realizations). Raises
    {!Retries_exhausted} after 1000 attempts. *)

(** Deterministic fixtures. *)

val complete : int -> Graph.t
val ring : int -> Graph.t

val grid : int -> int -> Graph.t
(** [grid r c]: r×c mesh, node [i·c + j] at row [i], column [j]. *)

val random_tree : Prng.t -> n:int -> Graph.t
(** Uniform attachment tree: node [v] links to a uniform node in
    [0 … v-1]. *)

val random_connected : Prng.t -> n:int -> extra:int -> Graph.t
(** A random tree plus up to [extra] additional uniform random links. *)
