(** Incremental row-space basis over ℚ.

    Measurement-path construction (Section 2.1 / the example of Section
    2.3) needs to grow a set of linearly independent paths one candidate
    at a time: a candidate path is kept iff its 0/1 incidence row
    increases the rank. This structure maintains a row-echelon basis so
    each candidate costs one forward reduction, and also answers
    row-space membership queries, which is how per-link identifiability
    ("is the i-th unit vector in the row space of R?") is decided.

    Cost model: rows are stored sparse, as their nonzero entries after
    the pivot. Every elimination runs in one accumulator the basis owns
    and keeps zero between calls: the input's nonzeros are loaded into
    it, one left-to-right sweep from the first of them applies the row
    pivoted at each nonzero pivot column, and only the residual's
    nonzero columns, recorded by the sweep, are read back and cleared.
    Its rational work follows the nonzeros of the rows it applies, not
    the dimension; what grows with the dimension is one cheap zero test
    per column the sweep passes. {!add_cols} and {!mem_unit} allocate
    only the row they store; the dense {!reduce}, {!mem} and {!add} also
    read every entry of their input. Every stored row, residual and
    answer is the one a dense elimination in the same pivot order gives.
    A basis is not safe to share between domains, since every query
    writes its accumulator. *)

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

val add_cols : t -> int array -> int -> bool
(** [add_cols t cols len] is [add t v] for the 0/1 row [v] with ones at
    [cols.(0)], …, [cols.(len - 1)] and zeros elsewhere — a measurement
    path's link columns — without building [v]. Raises
    [Invalid_argument] unless those columns are strictly ascending and
    in [\[0, dimension)]; the basis is then left as it was. [cols] is
    not retained. *)

val copy : t -> t
(** An independent basis with the same rows. Stored rows are never
    modified, so the copy shares them: O(dimension). *)
