(** Incremental row-space basis over ℚ.

    Measurement-path construction (Section 2.1 / the example of Section
    2.3) needs to grow a set of linearly independent paths one candidate
    at a time: a candidate path is kept iff its 0/1 incidence row
    increases the rank. This structure maintains a row-echelon basis so
    each candidate costs one forward reduction, and also answers
    row-space membership queries, which is how per-link identifiability
    ("is the i-th unit vector in the row space of R?") is decided.

    Cost model: rows are stored sparse, as their nonzero entries after
    the pivot, and a reduction is one left-to-right sweep over the
    vector's columns that applies the row pivoted at each nonzero pivot
    column. Its rational work follows the nonzeros of the rows it
    applies, not the dimension; what grows with the dimension is one
    dense copy of the vector and one cheap zero test per column. Every
    stored row, residual and answer is the one a dense elimination in
    the same pivot order gives. *)

type t

val create : int -> t
(** Basis of the zero subspace of ℚ{^n}. [n = 0] is allowed (and is
    trivially full). Raises [Invalid_argument] for negative [n]. *)

val dimension : t -> int
(** Ambient dimension [n]. *)

val rank : t -> int
(** O(1): the rank is kept as the basis grows. *)

val is_full : t -> bool
(** Whether the basis spans all of ℚ{^n}. O(1). *)

val reduce : t -> Rational.t array -> Rational.t array
(** Residual of a vector after eliminating against the basis; the zero
    vector iff the vector is in the span. Does not modify the basis. *)

val mem : t -> Rational.t array -> bool
(** Row-space membership. *)

val mem_unit : t -> int -> bool
(** [mem_unit t j] is [mem t e_j] for the [j]-th unit vector, answered
    without building it: [false] at once when no row is pivoted at [j],
    otherwise whether that row's entries after [j] reduce to zero
    against the rows pivoted after it. This is per-link
    identifiability off a measurement basis. Raises [Invalid_argument]
    unless [0 <= j < dimension t]. *)

val add : t -> Rational.t array -> bool
(** Add a vector. Returns [true] (and extends the basis) iff the vector
    was independent of the current span. The input array is not
    retained. *)

val copy : t -> t
(** An independent basis with the same rows. Stored rows are never
    modified, so the copy shares them: O(dimension). *)
