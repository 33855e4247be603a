(** Random Monitor Placement — the baseline of Section 7.3.

    RMP draws κ monitors uniformly at random and tests identifiability
    with the Section 7.1 test. It cannot guarantee identifiability; its
    quality is the fraction of Monte-Carlo draws that happen to achieve
    it, which is what Figs. 9–12 plot against κ. *)

open Nettomo_graph

val place : Nettomo_util.Prng.t -> Graph.t -> kappa:int -> Graph.NodeSet.t
(** κ distinct uniform nodes. Raises [Invalid_argument] if κ exceeds the
    node count, is negative, or the graph has fewer than two nodes (a
    placement needs two distinct endpoints to measure any path, so on a
    single-node graph even κ = |V| is rejected rather than accepted or
    retried forever). *)

val trial : Nettomo_util.Prng.t -> Graph.t -> kappa:int -> bool
(** One Monte-Carlo trial: place κ random monitors and test whether the
    whole network is identifiable. *)

val success_fraction_par :
  ?pool:Nettomo_util.Pool.t ->
  Nettomo_util.Prng.t ->
  Graph.t ->
  kappa:int ->
  runs:int ->
  float
(** Fraction of [runs] independent trials achieving identifiability.
    Trial [i] draws from [Nettomo_util.Prng.substream] [i] of the
    generator's state, and the trials run on [pool] when one is given
    (a one-job pool runs them in the caller), serially otherwise. The
    result is a function of the generator state, [kappa] and [runs]
    only: every job count — including no pool at all — returns the
    same fraction, and the caller's generator advances exactly once
    either way. Raises [Invalid_argument] unless [runs] is positive. *)
