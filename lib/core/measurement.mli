(** The linear-algebraic measurement model of Section 2.1.

    Link metrics are additive and constant; a measurement path [P] is a
    simple path between two distinct monitors and observes
    [W_P = Σ_{l ∈ P} W_l]. Stacking the 0/1 link-incidence rows of the
    measured paths gives the measurement matrix [R] of the linear system
    [R·w = c]. *)

open Nettomo_graph
open Nettomo_linalg

(** Fixed enumeration of a graph's links, giving each link its column in
    the measurement matrix. *)
type space

val space : Graph.t -> space
val n_links : space -> int
val link_order : space -> Graph.edge array
(** Column [j] of the measurement matrix corresponds to
    [(link_order s).(j)]. *)

val column : space -> Graph.edge -> int
(** Raises [Not_found] for a link outside the space. *)

val is_measurement_path : Net.t -> Paths.path -> bool
(** A valid measurement path: a simple path of the network's graph whose
    two endpoints are distinct monitors. Interior nodes need not avoid
    monitors, but the paper's model forbids repeated monitors only to
    exclude cycles — simple paths already guarantee that. *)

val check_measurement_path : Net.t -> Paths.path -> (unit, string) result

val incidence_row : space -> Paths.path -> Rational.t array
(** 0/1 row of the path over the link columns: one at the column of
    each of its links, zero elsewhere. Raises [Invalid_argument] for a
    link outside the space. *)

val matrix : space -> Paths.path list -> Matrix.t
(** Measurement matrix [R] (paths × links). Raises [Invalid_argument] on
    an empty path list. *)

type weights = Rational.t Graph.EdgeMap.t

val random_weights :
  ?lo:int -> ?hi:int -> Nettomo_util.Prng.t -> Graph.t -> weights
(** Uniform integer metrics in [\[lo, hi\]] (defaults 1 and 100) — e.g.
    per-link delays. *)

val weight : weights -> Graph.edge -> Rational.t
(** Raises [Invalid_argument] for a link without a metric. *)

val measure : weights -> Paths.path -> Rational.t
(** End-to-end sum metric [W_P] of one path. *)

val measure_all : weights -> Paths.path list -> Rational.t array
(** The measurement vector [c]. *)
