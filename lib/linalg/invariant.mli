(** Structural verification of the exact linear-algebra substrate, part
    of the debug invariant layer (see {!Nettomo_util.Invariant}).

    All checks are unconditional when called and raise
    [Nettomo_util.Invariant.Violation] on the first breach; callers gate
    them with [Nettomo_util.Invariant.check] so release builds pay
    nothing. *)

val check_rational : Rational.t -> unit
(** Normalization: positive denominator, lowest terms, zero as 0/1, and
    the canonical form — stored small iff numerator magnitude and
    denominator are both at most {!Rational.small_max}. *)

val check_vector : Rational.t array -> unit
(** Every entry normalized. *)

val check_matrix : Matrix.t -> unit
(** Shape coherence (positive dimensions, rectangular contents matching
    the claimed dimensions) and entry normalization. *)

val check_basis : Basis.t -> unit
(** [0 ≤ rank ≤ dimension], [is_full] consistency, and zero-vector
    behavior (zero residual, never independent). *)

val check_system : Matrix.t -> Rational.t array -> unit
(** A linear system [A·x = b]: matrix and vector are individually
    well-formed and [b] has one entry per matrix row. *)
