(** The constructive machinery of Section 5.2: cross-links, shortcuts and
    non-separating cycles (Definitions 2–4).

    Under the conditions of Theorem 3.2 every interior link is either a
    {e cross-link} — identifiable from four measurements via equation (7)
    — or a {e shortcut} — identifiable from two measurements plus an
    already-identified detour via equation (9). This module searches for
    those witness structures explicitly, which both illustrates the proof
    and yields concrete per-link identification formulas.

    The searches enumerate simple paths and are exponential: they are
    meant for small networks (examples, tests), with enumeration limits. *)

open Nettomo_graph
open Nettomo_linalg

type kind =
  | Cross_link of {
      pa : Paths.path;
      pb : Paths.path;
      pc : Paths.path;
      pd : Paths.path;
    }
      (** Witness measurement paths of Definition 2:
          [W_y = (W_PC + W_PD − W_PA − W_PB) / 2]. *)
  | Shortcut of { pa : Paths.path; pb : Paths.path; via : Paths.path }
      (** Witness of Definition 3: [via] is the identified detour [P₃]
          between the link's endpoints, and
          [W_y = W_PA − W_PB + W_{P₃}]. *)
  | Unclassified
      (** No witness found — under Theorem 3.2's conditions this does
          not happen for interior links. *)

val classify : Net.t -> kind Graph.EdgeMap.t
(** Classification of every interior link of a 2-monitor network.
    Cross-links are found first; shortcuts are then closed under a
    fixpoint, allowing detours through links identified earlier. Raises
    [Invalid_argument] unless the network has exactly two monitors, and
    {!Paths.Limit_exceeded} when more than 50,000 simple paths join
    a monitor and a node. *)

val identify : Net.t -> Measurement.weights ->
  (Graph.edge * Rational.t) list
(** Apply the identification formulas (7) and (9) to every classified
    interior link, measuring the witness paths against the given
    ground-truth metrics. Returns the computed metric per classified
    link (equal to the ground truth — the formulas are exact). *)

val is_non_separating_cycle : Net.t -> Graph.node list -> bool
(** Definition 4: the node sequence (in cyclic order, without repeating
    the first node) forms an induced cycle [F] of the graph such that
    every connected component of [G ∖ F] contains at least one
    monitor. *)

val non_separating_cycles : Net.t -> Graph.node list list
(** All non-separating cycles, each reported once with its smallest node
    first. Exponential: raises [Paths.Limit_exceeded] after examining
    100,000 candidate cycles. *)
