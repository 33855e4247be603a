(** Floating-point row-space basis with partial pivoting.

    A fast companion to {!Basis}: the measurement-path search tests
    thousands of candidate incidence rows, and almost all of them are
    rejected as linearly dependent. Reducing a candidate against a float
    basis costs a few microseconds, several times less than building a
    rational row and eliminating it exactly, so the searcher uses this
    structure as a prefilter and confirms only the accepted rows
    exactly.

    Rows are kept fully reduced (zero at every pivot but their own), so
    reducing a candidate only does arithmetic on the columns that are
    not yet pivots: the closer the basis is to full rank, the cheaper
    a rejection.

    Verdicts are approximate: a row whose residual max-norm falls below
    [epsilon] (default 1e-9) is reported dependent. For the 0/1
    incidence rows of measurement matrices at realistic sizes this never
    misfires in practice, and the exact confirmation step keeps the
    final plan sound regardless. *)

type t

val create : ?epsilon:float -> int -> t
val dimension : t -> int
val rank : t -> int
val is_full : t -> bool

val would_increase_rank : t -> float array -> bool
(** Whether the vector's residual against the basis is numerically
    non-zero. Does not modify the basis. *)

val add : t -> float array -> bool
(** Add a vector; [true] iff it (numerically) increased the rank. The
    input array is not retained. *)

val copy : t -> t
