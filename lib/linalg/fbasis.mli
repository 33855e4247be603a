(** Floating-point row-space basis over 0/1 rows, with partial pivoting.

    A fast companion to {!Basis}: the measurement-path search tests
    thousands of candidate incidence rows, and almost all of them are
    rejected as linearly dependent. Reducing a candidate against a float
    basis costs a few microseconds, several times less than building a
    rational row and eliminating it exactly, so the searcher uses this
    structure as a prefilter and confirms only the accepted rows
    exactly.

    A row is given as [cols] and [len]: its ones are at the strictly
    ascending columns [cols.(0)], …, [cols.(len - 1)], and it is zero
    elsewhere — a measurement path's link columns, in a buffer the
    caller may reuse once the call returns. Rows are kept fully reduced
    (zero at every pivot but their own), so reducing a candidate
    subtracts only the rows pivoted on its own columns, and only on the
    columns that are not yet pivots. The residual lives in one scratch
    vector owned by the basis, so testing or rejecting a candidate
    allocates nothing. Rank is kept as a field: {!rank} and {!is_full}
    are O(1).

    Cost model: each row is stored sparse, as its nonzero non-pivot
    columns and its values there, and the basis keeps, for each
    non-pivot column, the rows that may be nonzero there. A reduction
    reads only the stored entries of the rows it subtracts, then clears
    and scans only the columns it wrote: testing a candidate costs the
    nonzeros it reads, not the dimension. An {!add} builds the new row
    from the columns its reduction wrote and updates only the rows
    listed at its pivot, each at the cost of its own and the new row's
    entries; it allocates each row it stores. Skipping exact zeros
    leaves every nonzero value, and so every verdict and every pivot, as
    a dense reduction gives them.

    Verdicts are approximate: a row whose residual max-norm does not
    exceed 1e-9 is reported dependent. For the 0/1
    incidence rows of measurement matrices at realistic sizes this never
    misfires in practice, and the exact confirmation step keeps the
    final plan sound regardless. A basis is not safe to share between
    domains, since every query writes its scratch vector. *)

type t

val create : int -> t
(** Basis of the zero subspace of ℝ{^n}. Raises [Invalid_argument] for
    negative [n]. *)

val dimension : t -> int
val rank : t -> int
val is_full : t -> bool

val would_increase_rank : t -> int array -> int -> bool
(** [would_increase_rank t cols len]: whether the 0/1 row with ones at
    [cols.(0..len-1)] has a numerically non-zero residual against the
    basis. Does not modify the basis. Raises [Invalid_argument] unless
    those columns are strictly ascending and in [\[0, dimension)]. *)

val add : t -> int array -> int -> bool
(** Add the 0/1 row with ones at [cols.(0..len-1)]; [true] iff it
    (numerically) increased the rank. Same column requirements as
    {!would_increase_rank}. Equal to {!would_increase_rank} on the
    row followed by {!add_reduced}. *)

val add_reduced : t -> bool
(** Add the row that the latest {!would_increase_rank} on this basis
    tested, from the residual that test left in the scratch vector, so
    the row is not reduced a second time; [true] iff it increased the
    rank. The result, and every stored value, are those {!add} gives
    the same row. Only valid when no other call on this basis came in
    between. *)

val copy : t -> t
(** An independent basis with the same rows. *)
