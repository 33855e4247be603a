(** Exact row-space basis over ℚ for 0/1 rows, on native integers: the
    basis the measurement-path search grows, and per-link
    identifiability ("is e{_j} in the row space?") read off it.

    Every row is a primitive integer vector (entries' gcd 1) with a
    positive entry at its pivot, and rows are kept fully reduced: zero
    at every pivot but their own. So a candidate subtracts only the rows
    pivoted on its own columns, and e{_j} is in the span iff the row
    pivoted at [j] has no free entries, which makes {!mem_unit} O(1). A
    row is given as the strictly ascending columns [cols.(0..len-1)]
    where it is 1 — a measurement path's link columns, in a buffer the
    caller may reuse.

    Pivot rule: among the residual's smallest-magnitude entries, the
    column that the fewest stored rows are listed at, then the lowest
    column — Markowitz's sparse-elimination rule on one row. Every row
    listed at the pivot may have to be rewritten when the row is
    accepted, so this keeps {!eliminations} low. No answer depends on
    the choice: in any fully reduced basis, e{_j} is in the span iff the
    row pivoted at [j] has no free entries, and whether a row is
    accepted depends only on the span. Ranks, verdicts and {!mem_unit}
    are those of any other pivot order.

    Cost model: each row is stored sparse, over its nonzero free
    columns, and each free column lists the rows that may be nonzero
    there. A reduction reads only the rows it subtracts, in
    one scratch vector the basis owns, so a rejected candidate allocates
    nothing; an accepted one updates only the rows listed at its pivot.

    Every product and sum is checked against 2{^30} − 1, so no
    intermediate leaves a native int. An operation that would pass it
    replays the accepted rows, whose column lists the basis keeps, into
    a rational {!Basis}, which answers from then on: no verdict depends
    on the representation. Not safe to share between domains. *)

type t

val create : int -> t
(** Basis of the zero subspace of ℚ{^n}. Raises [Invalid_argument] for
    negative [n]. *)

val dimension : t -> int
val rank : t -> int
val is_full : t -> bool

val add_cols : t -> int array -> int -> bool
(** Add the 0/1 row with ones at [cols.(0..len-1)]; [true] iff it
    increased the rank. Raises [Invalid_argument] unless those columns
    are strictly ascending and in [\[0, dimension)]; the basis is then
    left as it was. [cols] is not retained. *)

val mem_unit : t -> int -> bool
(** [mem_unit t j]: whether the [j]-th unit vector lies in the span.
    O(1) on integers, {!Basis.mem_unit} after a switch. Raises
    [Invalid_argument] unless [0 <= j < dimension t]. *)

val rational : t -> bool
(** Whether an overflow switched this basis to rationals. *)

val eliminations : t -> int
(** Stored rows rewritten so far to keep the basis fully reduced: one
    per row listed at an accepted row's pivot that was nonzero there.
    Deterministic for a given sequence of rows; it stops counting once
    the basis has switched to rationals. *)

(** A lower overflow bound for tests, so the switch to rationals
    happens mid-sequence on small inputs. *)
module Testing : sig
  val with_bound : int -> (unit -> 'a) -> 'a
  (** [with_bound b f] runs [f] with every basis created meanwhile
      bounded by [b] instead of 2{^30} − 1. Raises [Invalid_argument]
      unless [1 <= b <= 2{^30} − 1]. *)
end
