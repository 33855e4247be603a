(** Session-based dynamic tomography: a mutable wrapper around a
    monitored network that answers identifiability / classification /
    MMP / solver-plan / coverage / augmentation queries under topology
    churn, reusing analysis state across deltas instead of recomputing
    from zero.

    The caching scheme (see DESIGN.md §10) is content-addressed through
    {!Fingerprint}:

    - every answer is memoized under its store key (the full
      fingerprint, or the structure half for MMP, plus the seed and
      budget where they matter), so a delta stream that revisits a
      state (add a link, remove it again) answers in O(1);
    - MMP takes each block's triconnected split from a per-block
      cache keyed by the block's own fingerprint: a delta only pays
      recomputation inside the blocks it touched, and block
      merges/splits are ordinary cache misses that fall back to
      recomputing just those blocks;
    - O(1) counters (connectivity when derivable, the number of
      non-monitor nodes of degree < 3) and verdict monotonicity
      (adding links or monitors preserves a positive Theorem 3.3
      verdict; removing them preserves a negative one) short-circuit
      the κ ≥ 3 identifiability test entirely on many deltas.

    Caches grow with the number of distinct states visited and are
    never evicted; a long-lived server trades that memory for answer
    latency. A session may additionally carry a persistent
    {!Nettomo_store.Store} (see DESIGN.md §11): it is consulted only
    when the in-memory memos miss and only where a real analysis would
    otherwise run, so answers — including their byte-level rendering —
    are identical with the store disabled, cold, warm, or corrupted.
    With [NETTOMO_CHECK] enabled every answer is re-derived from
    scratch and compared — a divergence (including a fingerprint
    collision or a stale store artifact) raises
    {!Nettomo_util.Invariant.Violation}. *)

open Nettomo_graph

type t

(** A topology/monitor change. All operations validate first and leave
    the session untouched when they return [Error]. *)
type delta =
  | Add_node of Graph.node  (** new isolated node; must not exist *)
  | Remove_node of Graph.node
      (** drops incident links, and the node from the monitor set *)
  | Add_link of Graph.node * Graph.node
      (** missing endpoints are created implicitly; the link must not
          exist *)
  | Remove_link of Graph.node * Graph.node
      (** endpoints stay; the link must exist *)
  | Set_monitors of Graph.node list
      (** replace the monitor set; members must be nodes, no duplicates *)

val create : ?seed:int -> ?store:Nettomo_store.Store.t -> Nettomo_core.Net.t -> t
(** A fresh session over a network. [seed] (default 7) drives the
    deterministic generators of {!plan}, {!coverage}, {!augment} and
    {!solve}, and is part of their store keys. [store] attaches a
    persistent second-level cache; without it the session is
    memory-only — the environment is never consulted ([nettomo serve]
    resolves [NETTOMO_STORE] itself and passes the store in). *)

val net : t -> Nettomo_core.Net.t
(** The current network. *)

val fingerprint : t -> Fingerprint.t
val seed : t -> int

val store : t -> Nettomo_store.Store.t option
(** The attached persistent store, if any — e.g. for reading its
    hit/miss counters into a stats report. *)

val apply : t -> delta -> (unit, string) result
(** Apply one delta. O(1) fingerprint/counter updates plus the cost of
    rebuilding the persistent graph; no analysis runs until the next
    query. *)

(** {1 Queries}

    Results mirror the library functions exactly — including their
    [Invalid_argument] messages, returned as [Error] — as enforced by
    the [NETTOMO_CHECK] differential invariant. *)

val identifiable : t -> (bool, string) result
(** {!Nettomo_core.Identifiability.network_identifiable} on the current
    network. *)

val classify : t -> (Nettomo_core.Classify.kind Graph.EdgeMap.t, string) result
(** {!Nettomo_core.Classify.classify} (two-monitor networks only);
    memoized per state, exponential on first computation. *)

val mmp : t -> (Nettomo_core.Mmp.report, string) result
(** {!Nettomo_core.Mmp.place_report}, computed by
    {!Nettomo_core.Mmp.place_flat} on the state flattened once, with
    each block's split from the per-block cache. *)

val plan : t -> (Nettomo_core.Solver.plan, string) result
(** {!Nettomo_core.Solver.independent_paths} with a fresh
    [Prng.create seed] per computation, so answers are a deterministic
    function of (state, seed). *)

val coverage : t -> (Nettomo_coverage.Coverage.report, string) result
(** {!Nettomo_coverage.Coverage.classify} with the session seed driving
    the sampled rank fallback; memoized per state and persisted under a
    seed-qualified store key. Under [NETTOMO_CHECK] the answer is
    additionally compared against the exact rank oracle
    {!Nettomo_core.Identifiability.identifiable_links_bruteforce}
    whenever the network has at most 12 nodes. *)

val augment : t -> k:int -> (Nettomo_coverage.Coverage.plan, string) result
(** {!Nettomo_coverage.Coverage.augment} for a budget of [k] monitor
    additions. Memoized and persisted per (state, [k]): every budget
    asked for is kept, not only the latest. *)

val solve : t -> (Nettomo_measure.Solve.solution, string) result
(** A full simulated measurement campaign on the current network:
    ground-truth link metrics drawn deterministically from the session
    seed, the constructive walk family of {!Nettomo_measure.Paths}
    measured against them, and every metric recovered in linear time by
    {!Nettomo_measure.Solve}. [Error] when the network is disconnected
    or has fewer than two monitors. Memoized per state and persisted
    under a seed-qualified store key with bit-exact hex-float metrics.
    Under [NETTOMO_CHECK] the float metrics are additionally compared —
    bit for bit — against the exact-ℚ {!Nettomo_core.Solver.recover}
    pipeline whenever the network has at most 12 nodes. *)

(** {1 From-scratch references}

    The baseline the engine is checked against: plain library calls
    with exceptions converted to [Error]. Tests and the churn benchmark
    share these so "equal to from-scratch" means one thing. *)
module Scratch : sig
  val identifiable : Nettomo_core.Net.t -> (bool, string) result

  val classify :
    Nettomo_core.Net.t ->
    (Nettomo_core.Classify.kind Graph.EdgeMap.t, string) result

  val mmp : Nettomo_core.Net.t -> (Nettomo_core.Mmp.report, string) result

  val plan :
    seed:int -> Nettomo_core.Net.t -> (Nettomo_core.Solver.plan, string) result

  val coverage :
    seed:int ->
    Nettomo_core.Net.t ->
    (Nettomo_coverage.Coverage.report, string) result

  val augment :
    seed:int ->
    k:int ->
    Nettomo_core.Net.t ->
    (Nettomo_coverage.Coverage.plan, string) result

  val truth_of :
    seed:int -> Nettomo_core.Net.t -> Nettomo_core.Measurement.weights
  (** The deterministic ground-truth metrics a [solve] campaign is
      simulated against. *)

  val solve :
    seed:int ->
    Nettomo_core.Net.t ->
    (Nettomo_measure.Solve.solution, string) result
end

(** {1 Equality of answers} *)

val equal_report : Nettomo_core.Mmp.report -> Nettomo_core.Mmp.report -> bool

val equal_classification :
  Nettomo_core.Classify.kind Graph.EdgeMap.t ->
  Nettomo_core.Classify.kind Graph.EdgeMap.t ->
  bool

val equal_plan : Nettomo_core.Solver.plan -> Nettomo_core.Solver.plan -> bool

val equal_coverage :
  Nettomo_coverage.Coverage.report -> Nettomo_coverage.Coverage.report -> bool

val equal_augment :
  Nettomo_coverage.Coverage.plan -> Nettomo_coverage.Coverage.plan -> bool

val equal_solution :
  Nettomo_measure.Solve.solution -> Nettomo_measure.Solve.solution -> bool
(** {!Nettomo_measure.Solve.solution_equal}: bit-exact on metrics. *)

val equal_result : ('a -> 'a -> bool) -> ('a, string) result -> ('a, string) result -> bool
(** Payloads by the given equality, errors by message. *)

(** {1 Instrumentation} *)

type stats = {
  deltas : int;  (** successfully applied deltas *)
  queries : int;
  memo_hits : int;  (** answers served from a per-state memo *)
  degree_shortcuts : int;  (** O(1) [false] via the degree counter *)
  verdict_carries : int;  (** answers carried by monotonicity *)
  block_hits : int;  (** per-block decomposition cache hits *)
  block_misses : int;
  full_computes : int;  (** answers that ran a real analysis *)
}

val stats : t -> stats
