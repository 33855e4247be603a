(** End-to-end tomography: construct linearly independent measurement
    paths, measure them, and recover every link metric exactly — the
    workflow of the Section 2.3 example, automated.

    Path construction grows an exact row basis ({!Nettomo_linalg.Basis})
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

val independent_paths :
  ?rng:Nettomo_util.Prng.t ->
  ?max_stall:int ->
  ?seeds:(Nettomo_graph.Csr.t -> monitor:bool array -> (int -> int array -> int -> unit) -> unit) ->
  Net.t ->
  plan
(** A maximal set of linearly independent measurement paths found by the
    layered search. [max_stall] (default [50 · (|L| + 1)]) bounds
    consecutive unproductive random candidates before falling back to
    enumeration, which only runs on graphs of at most 16 nodes and gives
    up on a monitor pair after 200,000 paths — so on larger networks the
    plan is maximal only with high probability. On identifiable
    networks of moderate size the plan reaches full rank.

    [seeds] generates rows offered before any search layer. It is called
    once, on the flat graph the search builds and its monitor flags by
    index, with a callback it calls once per row, in order:
    [emit src cols len] offers the simple path between two distinct
    monitors that starts at index [src] and whose link numbers are
    [cols.(0)] < … < [cols.(len - 1)]. The search does not check again
    that the row is such a path. [cols] is only read during the call,
    so a generator can reuse one buffer for every row. Structured rows
    — e.g. the spanning-tree families of
    [Measure.Paths.simple_candidates] — push the reached rank far beyond
    what the stall-bounded random layer finds on larger networks. An
    accepted seed enters the plan as its node path from [src]. *)

val sort_row : int array -> int -> unit
(** [sort_row row len] sorts [row.(0..len-1)] ascending in place: how a
    generator puts a row's link numbers in the order [seeds] requires.
    Insertion sort, for rows a few links long. *)

val independent_paths_with_basis :
  ?rng:Nettomo_util.Prng.t ->
  ?max_stall:int ->
  ?seeds:(Nettomo_graph.Csr.t -> monitor:bool array -> (int -> int array -> int -> unit) -> unit) ->
  Net.t ->
  plan * Basis.t
(** {!independent_paths} together with the exact row basis the search
    built: the span of the plan's incidence rows, equal to the basis
    obtained by adding [plan.paths]' rows to an empty {!Basis.t} in
    order. Per-link identifiability ("is the unit vector in the row
    space?") can be read off it directly ({!Basis.mem_unit}) instead of
    eliminating the plan a second time. The basis is not part of
    {!plan} because plans are also rebuilt from their paths alone (e.g.
    decoded from a store).

    The search runs on link numbers: the network is flattened once
    ({!Nettomo_graph.Csr}, whose link numbers are the measurement
    columns). Seeds arrive as rows and are offered as they arrive. The
    monitor-pair shortest paths are read off one flat breadth-first
    tree per source monitor ({!Nettomo_graph.Csr.bfs}) into one reused
    row buffer, and each becomes a node path only once it is accepted.
    Random and enumerated node paths are validated and written into the
    same buffer as their ascending columns in one pass over the flat
    rows. Every row goes through a float prefilter ({!Fbasis}) first,
    which rejects it without allocating; only the ones it accepts are
    eliminated exactly ({!Basis.add_cols}), with no dense row. Each such
    exact elimination increments the [solver_exact_rows_total] counter
    of the metrics registry, and each candidate the prefilter rejects
    increments [solver_prefilter_rejects_total]. *)

val exact_rows : Nettomo_obs.Obs.Metrics.counter
(** [solver_exact_rows_total]: candidate rows eliminated exactly. *)

val prefilter_rejects : Nettomo_obs.Obs.Metrics.counter
(** [solver_prefilter_rejects_total]: candidates the float prefilter
    rejected. Both counters are process-wide and deterministic for a
    given input and seed. *)

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
