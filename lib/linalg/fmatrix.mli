(** Dense floating-point matrices: Gaussian elimination with partial
    pivoting and linear least squares.

    The exact {!Matrix} decides identifiability; this module serves the
    statistical side (noisy measurements, where metrics are means and
    exactness is meaningless): averaging repeated measurements and
    solving — or least-squares fitting — in floating point. *)

type t

val of_rows : float array array -> t
val of_matrix : Matrix.t -> t
(** Convert an exact matrix entrywise. *)

val rows : t -> int
val cols : t -> int
val get : t -> int -> int -> float
val mul_vec : t -> float array -> float array
val transpose : t -> t

val solve : t -> float array -> float array option
(** Square system by Gaussian elimination with partial pivoting; [None]
    if (numerically) singular. Raises [Invalid_argument] on non-square
    input or dimension mismatch. *)

val least_squares : t -> float array -> float array option
(** Minimize ‖A·x − b‖₂ for a full-column-rank [A] (rows ≥ cols) via the
    normal equations. [None] when AᵀA is numerically singular. *)

val residual_norm : t -> float array -> float array -> float
(** ‖A·x − b‖₂. *)
