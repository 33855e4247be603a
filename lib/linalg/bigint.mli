(** Arbitrary-precision signed integers.

    Gaussian elimination over the rationals makes numerators and
    denominators grow beyond 63 bits even on modest measurement matrices,
    and no bignum package is available offline, so this module provides a
    self-contained implementation: sign-magnitude with base-2{^30} limbs,
    schoolbook multiplication and shift-subtract division. Magnitudes in
    this library stay small (hundreds of bits), so asymptotically fancy
    algorithms are deliberately avoided. *)

type t

val zero : t
val one : t

val of_int : int -> t
val to_int : t -> int option
(** [None] if the value does not fit in a native [int]. *)

val of_string : string -> t
(** Decimal, with optional leading [-]. Raises [Invalid_argument] on
    malformed input. *)

val to_string : t -> string

val compare : t -> t -> int
val equal : t -> t -> bool
val sign : t -> int
val is_zero : t -> bool

val neg : t -> t
val abs : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t

val divmod : t -> t -> t * t
(** [divmod a b] is [(q, r)] with [a = q·b + r], [q] truncated toward
    zero and [r] carrying the sign of [a] (as native [( / )] and
    [( mod )]). Raises [Division_by_zero]. *)

val div : t -> t -> t
val rem : t -> t -> t

val gcd : t -> t -> t
(** Non-negative greatest common divisor; [gcd 0 0 = 0]. *)

val to_float : t -> float
