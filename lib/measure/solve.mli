(** Linear-time link-metric recovery from the constructive walk family.

    The {!Paths} measurement values form a triangular system: the trunk
    gives [a = φ(s)], each probe gives [φ(v) = (value − a) / 2], tree
    links follow as potential differences along the BFS tree, and each
    chord link follows from its detour value by substitution. No
    elimination, no rank computation — [O(n + m)] float arithmetic.
    With integer ground-truth metrics (the repo's default
    [Measurement.random_weights]) every intermediate is an exact small
    integer, so the float answer equals the exact-ℚ answer bit for bit;
    the exact {!Nettomo_core.Solver} survives only as the
    [NETTOMO_CHECK] differential oracle. *)

module Graph = Nettomo_graph.Graph
open Nettomo_core

type solution = {
  links : Graph.edge array;
      (** lexicographic link order — the measurement column order *)
  metrics : float array;  (** recovered metric per link, same order *)
  measurements : int;  (** number of walks measured, always [|links|] *)
}

val recover : Paths.t -> float array -> solution
(** [recover plan values] solves for every link metric given the
    end-to-end value of each plan walk ([values.(i)] measures walk
    [i]). Raises [Invalid_argument] on a length mismatch. *)

val simulate : Net.t -> Measurement.weights -> (solution, string) result
(** The whole campaign against ground truth: plan the walks, measure
    each one, recover. [Error] exactly when {!Paths.plan} fails
    (disconnected, or fewer than two monitors). Under
    {!Nettomo_util.Invariant} the walk family is structurally verified,
    its multiplicity matrix is checked exactly full-rank over ℚ (on
    networks of at most 64 links: the check is cubic), and the
    recovered metrics are compared to the ground truth. *)

val solution_equal : solution -> solution -> bool
(** Structural equality, exact on the float metrics — solutions are
    deterministic functions of the input, so differential comparisons
    (store round-trips, [--jobs] invariance) demand bit equality. *)
