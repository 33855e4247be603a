(** Deterministic pseudo-random number generator.

    All randomized components of the library (topology generators, random
    monitor placement, randomized path search) draw from this generator so
    that every experiment is reproducible from a single integer seed.

    The implementation is xoshiro256** seeded through SplitMix64, a
    well-studied combination with 256 bits of state. The generator is
    mutable; use {!substream} or {!split_n} to derive independent streams
    for concurrent or per-trial use. *)

type t

val create : int -> t
(** [create seed] builds a generator from an arbitrary integer seed.
    Equal seeds always produce equal streams. *)

val copy : t -> t
(** [copy t] is an independent generator with the same current state. *)

val substream : t -> int -> t
(** [substream t i] derives an independent child generator keyed by
    [i], {e without} advancing [t]: it is a pure function of [t]'s
    current state and [i] (SplitMix-style mixing of the full 256-bit
    state with the index). Distinct indices give pairwise independent
    streams, and the result never depends on how many sibling
    substreams were derived or drawn from in between — the property
    that makes parallel per-trial randomness bit-identical to the
    serial schedule. *)

val split_n : t -> int -> t array
(** [split_n t n] advances [t] exactly once (regardless of [n]) and
    returns [n] substreams keyed [0 .. n-1] off the pre-advance state:
    [split_n t n = Array.init n (substream t')] for the state [t'] had
    before the call. Raises [Invalid_argument] if [n < 0]. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. [bound] must be positive. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in [\[lo, hi\]] (inclusive). *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val bool : t -> bool

val bernoulli : t -> float -> bool
(** [bernoulli t p] is [true] with probability [p]. *)

val gaussian : ?sigma:float -> t -> float
(** Normally distributed sample (Box–Muller) with mean 0 and standard
    deviation [sigma] (default 1). *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val sample : t -> int -> 'a array -> 'a array
(** [sample t k arr] draws [k] distinct elements of [arr] uniformly
    without replacement. Raises [Invalid_argument] if [k] exceeds the
    array length. *)

val choose : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)
