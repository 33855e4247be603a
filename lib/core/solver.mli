(** End-to-end tomography: construct linearly independent measurement
    paths, measure them, and recover every link metric exactly — the
    workflow of the Section 2.3 example, automated.

    Path construction grows an exact row basis ({!Nettomo_linalg.Zbasis})
    from candidate simple paths: shortest paths between every monitor
    pair first, then randomized simple paths, then (on small networks)
    exhaustive enumeration as a completeness fallback. When the network
    is identifiable (Theorem 3.3 conditions hold) this yields exactly
    [n = |L|] independent paths, and solving [R·w = c] recovers the
    metric vector [w] exactly. *)

open Nettomo_graph
open Nettomo_linalg

type plan = {
  space : Measurement.space;
  paths : Paths.path list;  (** linearly independent measurement paths *)
  rank : int;  (** [= List.length paths] *)
}

type seeds = Csr.t -> monitor:bool array -> (int -> int array -> int -> unit) -> int list
(** A generator of rows offered before any search layer; see
    {!independent_paths}. *)

val independent_paths :
  ?rng:Nettomo_util.Prng.t -> ?max_stall:int -> ?seeds:seeds -> Net.t -> plan
(** A maximal set of linearly independent measurement paths found by the
    layered search. [max_stall] (default [50 · (|L| + 1)]) bounds
    consecutive unproductive random candidates before falling back to
    enumeration, which only runs on graphs of at most 16 nodes and gives
    up on a monitor pair after 200,000 paths — so on larger networks the
    plan is maximal only with high probability. On identifiable
    networks of moderate size the plan reaches full rank.

    [seeds] generates rows offered before any search layer. It is called
    once, on the flat graph the search runs on and its monitor flags by
    index, with a callback it calls once per row, in order:
    [emit src cols len] offers the simple path between two distinct
    monitors that starts at index [src] and whose link numbers are
    [cols.(0)] < … < [cols.(len - 1)]. The search does not check again
    that the row is such a path. [cols] is only read during the call,
    so a generator can reuse one buffer for every row. Structured rows
    — e.g. the spanning-tree families of
    [Measure.Paths.simple_candidates] — push the reached rank far beyond
    what the stall-bounded random layer finds on larger networks. An
    accepted seed enters the plan as its node path from [src].

    The generator returns its {e roots}: monitor indices [r] for which
    it emitted the path from [r] to every other monitor reachable from
    it in the tree [Nettomo_graph.Csr.bfs csr r]. Those include every
    row the monitor-pair layer would offer from source [r], so that
    layer skips such a source, breadth-first search included. A
    generator that claims no root returns [[]].

    A generator may leave out a row that lies in the span of the rows
    it already emitted: the search keeps a row only when it raises the
    rank, so such a row would have been turned away. The plan, the
    basis and every later layer are the same without it; the work
    counters below only lose that row's own count. Skipping a root's
    monitor-pair rows is the same case.

    The search runs on link numbers: the network is flattened once
    ({!Nettomo_graph.Csr}, whose link numbers are the measurement
    columns), and {!basis} takes the flat graph itself. Seeds arrive as
    rows and are offered as they arrive. The monitor-pair shortest
    paths are read off one flat breadth-first tree per source monitor
    ({!Nettomo_graph.Csr.bfs}) into one reused row buffer, and each
    becomes a node path only once it is accepted. Random and enumerated
    node paths are validated and written into the same buffer as their
    ascending columns in one pass over the flat rows. Every row is
    offered once to the exact integer basis ({!Zbasis.add_cols}), which
    rejects a dependent row without allocating; no float decides a
    rank. Each row that raises the rank increments the
    [solver_exact_rows_total] counter of the metrics registry, each
    dependent one [solver_prefilter_rejects_total], each search whose
    basis switched to rationals [solver_rational_fallbacks_total], and
    each search adds its basis's {!Zbasis.eliminations} to
    [solver_eliminations_total]. *)

val sort_row : int array -> int -> unit
(** [sort_row row len] sorts [row.(0..len-1)] ascending in place: how a
    generator puts a row's link numbers in the order [seeds] requires.
    Insertion sort, for rows a few links long. *)

val basis :
  ?rng:Nettomo_util.Prng.t ->
  ?max_stall:int ->
  ?seeds:seeds ->
  Csr.t ->
  monitor:bool array ->
  Zbasis.t
(** [basis csr ~monitor] is the same search, arguments and work counts
    as {!independent_paths} on the network whose flat graph is [csr]
    and whose monitors are the indices [i] with [monitor.(i)], returning
    only the exact row basis it grows: the span of the plan's incidence
    rows, with column [j] link number [j] of [csr], which is the [j]-th
    link of {!Measurement.link_order}. Per-link identifiability ("is the
    unit vector in the row space?") is read off it directly
    ({!Zbasis.mem_unit}, O(1)). No accepted row is turned back into a
    node path and no {!Measurement.space} is built. The persistent graph
    the random and exhaustive layers walk is rebuilt from [csr] only
    when one of them runs. Both entries open the
    [solver.independent_paths] span. *)

val exact_rows : Nettomo_obs.Obs.Metrics.counter
(** [solver_exact_rows_total]: candidate rows that raised the rank. *)

val prefilter_rejects : Nettomo_obs.Obs.Metrics.counter
(** [solver_prefilter_rejects_total]: candidate rows found dependent.
    The name is kept from the float prefilter that used to reject
    them. *)

val rational_fallbacks : Nettomo_obs.Obs.Metrics.counter
(** [solver_rational_fallbacks_total]: searches whose basis switched to
    rationals on integer overflow. *)

val eliminations : Nettomo_obs.Obs.Metrics.counter
(** [solver_eliminations_total]: stored basis rows rewritten by
    accepted rows ({!Zbasis.eliminations}), summed over searches. All
    four counters are process-wide and deterministic for a given input
    and seed. *)

val full_rank : Net.t -> plan -> bool
(** Whether the plan has as many paths as the network has links. *)

val solve : plan -> Rational.t array -> (Graph.edge * Rational.t) list
(** [solve plan c] solves [R·w = c] for the link metrics, given the
    end-to-end measurement [c.(i)] of the i-th plan path. Raises
    [Invalid_argument] if the plan is not full rank or [c] has the wrong
    length. *)

val recover :
  ?rng:Nettomo_util.Prng.t ->
  Net.t ->
  Measurement.weights ->
  (Graph.edge * Rational.t) list option
(** Simulate the whole pipeline against ground-truth link metrics:
    construct a plan, measure each plan path, solve, and return the
    recovered metrics ([None] when the network is not identifiable with
    the given monitors, i.e. full rank was not reached). The recovered
    metrics equal the ground truth exactly whenever a plan is
    returned. *)
