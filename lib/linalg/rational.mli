(** Exact rational numbers, on native ints while they fit and over
    {!Bigint} beyond.

    Values are kept normalized: positive denominator, numerator and
    denominator coprime, zero represented as 0/1. Link metrics, path
    measurements and all Gaussian elimination in this library are done
    over ℚ so that identifiability — a rank property — is decided
    exactly.

    The representation has two forms. A value whose numerator and
    denominator both have magnitude at most {!small_max} (2{^30}−1) is
    stored {e small}, as two native ints; every other value is stored
    {e big}, as two {!Bigint.t}. The choice is canonical — a value that
    fits the small form is never stored big — so each value has exactly
    one representation and {!equal} can compare structurally. With both
    operands small, the cross products in {!add}, {!sub}, {!mul} and
    {!compare} stay below 2{^61} and are exact in a 63-bit int; Bigint
    arithmetic and its gcd run only when an operand or a result leaves
    the small range. Eliminations over the 0/1 incidence rows of
    measurement matrices stay small in practice: none of the ~780,000
    sums and products of a coverage pass over the Ebone, Exodus and
    Tiscali maps produces a big value. *)

type t

val zero : t
val one : t

val of_int : int -> t
val of_ints : int -> int -> t
(** [of_ints n d] is [n/d]. Raises [Division_by_zero] if [d = 0]. *)

val make : Bigint.t -> Bigint.t -> t
(** [make num den], normalized. Raises [Division_by_zero] if [den] is
    zero. *)

val num : t -> Bigint.t
val den : t -> Bigint.t
(** Always positive. *)

val compare : t -> t -> int
val equal : t -> t -> bool
val sign : t -> int
val is_zero : t -> bool
val is_integer : t -> bool

val neg : t -> t
val abs : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val div : t -> t -> t
(** Raises [Division_by_zero]. *)

val inv : t -> t
(** Raises [Division_by_zero] on zero. *)

val min : t -> t -> t
val max : t -> t -> t

val to_float : t -> float
val to_string : t -> string
(** ["n/d"], or just ["n"] for integers. *)

val of_string : string -> t
(** Parses ["n"], ["n/d"] or decimal notation like ["3.25"]. Raises
    [Invalid_argument] on malformed input. *)

val pp : Format.formatter -> t -> unit

(** {1 Representation} *)

val small_max : int
(** [2{^30} − 1]: the largest numerator magnitude and denominator of
    the small form. *)

val is_small : t -> bool
(** Whether the value is stored in the small form. For every value
    built through this interface, [is_small t] holds iff both
    [|num t|] and [den t] are at most {!small_max}. *)

(** Deliberately non-canonical values for exercising
    {!Invariant.check_rational} in tests. Never use outside tests: the
    results break the invariants {!equal} and every other function rely
    on. *)
module Testing : sig
  val big : Bigint.t -> Bigint.t -> t
  (** [big num den] stores [num/den] in the big form verbatim: no sign
      normalization, no reduction, no choice of form. *)
end
