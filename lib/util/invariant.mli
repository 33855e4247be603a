(** Switchboard for the runtime invariant-verification layer.

    Structural invariants of the paper's machinery — adjacency symmetry
    of {!Nettomo_graph.Graph.t}, measurement-matrix/path-set coherence,
    the MMP postcondition of Theorem 3.3 — are verified by the
    per-library [Invariant] modules ([Graph.Invariant],
    [Nettomo_linalg.Invariant], [Nettomo_core.Invariant]). All of them
    are gated behind this switch so release builds pay nothing: the
    gate is one atomic-bool read. The switch is shared across domains,
    so verifiers stay usable inside {!Pool} worker tasks; flip it
    before the parallel phase ({!with_enabled}'s save/restore is not
    scoped per-domain).

    The switch starts enabled iff the [NETTOMO_CHECK] environment
    variable is set to anything but [""], ["0"] or ["false"], and can be
    forced for the extent of a thunk with {!with_enabled} (tests force
    it on). On failure the checks raise {!Violation} — never an
    assert — so violations are distinguishable from ordinary
    precondition errors. *)

exception Violation of string

val enabled : unit -> bool
(** Whether invariant verification is on. *)

val with_enabled : bool -> (unit -> 'a) -> 'a
(** Run a thunk with the switch forced to a value, restoring it after. *)

val violation : string -> 'a
(** Raise {!Violation}. *)

val violationf : ('a, unit, string, 'b) format4 -> 'a

val require : bool -> ('a, unit, string, unit) format4 -> 'a
(** [require cond fmt …] raises {!Violation} with the formatted message
    when [cond] is false. Meant for use inside verifier bodies that are
    themselves gated, so the formatting cost is debug-only. *)

val check : (unit -> unit) -> unit
(** [check f] runs the verifier thunk [f] iff {!enabled}. Call sites on
    hot paths use this so disabled builds pay one branch. *)
