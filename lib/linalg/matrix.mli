(** Dense matrices over ℚ with exact Gaussian elimination.

    This is the substrate for the linear-algebraic model of Section 2.1:
    the measurement matrix [R] is a 0/1 matrix over ℚ, the network is
    identifiable iff [rank R] equals the number of links, and metric
    recovery solves [R·w = c]. Those two questions, {!rank} and
    {!solve}, are all this module answers. *)

type t

val of_rows : Rational.t array array -> t
(** Copies its argument; rows must be non-empty and equally long. *)

val of_int_rows : int array array -> t

val rows : t -> int
val cols : t -> int
val get : t -> int -> int -> Rational.t
val row : t -> int -> Rational.t array
(** A copy of the row. *)

val to_rows : t -> Rational.t array array
(** A fresh copy of the contents. *)

val rank : t -> int
(** Exact rank over ℚ. *)

val solve : t -> Rational.t array -> Rational.t array option
(** [solve a b] is some [x] with [a·x = b]. Requires [a] to have full
    column rank so that the solution, if any, is unique; returns [None]
    if the system is inconsistent. Raises [Invalid_argument] if [a] does
    not have full column rank or dimensions mismatch. *)
