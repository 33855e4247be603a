(** Floating-point row-space basis over 0/1 rows, with partial pivoting.

    A fast companion to {!Basis}: the measurement-path search tests
    thousands of candidate incidence rows, and almost all of them are
    rejected as linearly dependent. Reducing a candidate against a float
    basis costs a few microseconds, several times less than building a
    rational row and eliminating it exactly, so the searcher uses this
    structure as a prefilter and confirms only the accepted rows
    exactly.

    A row is given as its column list: the ascending columns where it
    is 1, zero elsewhere — a measurement path's link columns. Rows are
    kept fully reduced (zero at every pivot but their own), so reducing
    a candidate subtracts only the rows pivoted on its own columns, and
    only on the columns that are not yet pivots. The residual lives in
    one scratch vector owned by the basis, so testing or rejecting a
    candidate allocates nothing; only an accepted row is stored. Rank
    is kept as a field: {!rank} and {!is_full} are O(1).

    Cost model: each row keeps the list of non-pivot columns where it is
    nonzero, and a reduction reads only those entries of the rows it
    subtracts, then clears and scans only the columns it wrote. Testing
    a candidate costs the nonzeros it reads, not the dimension. An
    {!add} still builds a dense row and scans every row once. Skipping
    exact zeros leaves every nonzero value, and so every verdict and
    every pivot, as a dense reduction gives them.

    Verdicts are approximate: a row whose residual max-norm does not
    exceed [epsilon] (default 1e-9) is reported dependent. For the 0/1
    incidence rows of measurement matrices at realistic sizes this never
    misfires in practice, and the exact confirmation step keeps the
    final plan sound regardless. A basis is not safe to share between
    domains, since every query writes its scratch vector. *)

type t

val create : ?epsilon:float -> int -> t
(** Basis of the zero subspace of ℝ{^n}. Raises [Invalid_argument] for
    negative [n]. *)

val dimension : t -> int
val rank : t -> int
val is_full : t -> bool

val would_increase_rank : t -> int list -> bool
(** Whether the 0/1 row with ones at the given columns has a
    numerically non-zero residual against the basis. Does not modify
    the basis. Raises [Invalid_argument] unless the columns are strictly
    ascending and in [\[0, dimension)]. *)

val add : t -> int list -> bool
(** Add the 0/1 row with ones at the given columns; [true] iff it
    (numerically) increased the rank. Same column requirements as
    {!would_increase_rank}. *)

val copy : t -> t
(** An independent basis with the same rows. *)
