(** Minimal JSON document builder and parser.

    Just enough JSON for machine-readable benchmark reports and the
    [nettomo serve] request/response protocol: build a {!t} and
    serialize, or {!parse} a document back. Serialization is
    deterministic — object members keep insertion order — so reports
    diff cleanly across runs. No third-party JSON library is available
    offline, hence this module.

    Round-trip guarantees: [parse (to_string v) = Ok v] for every value
    whose floats are finite ({!Float} always serializes float-shaped,
    e.g. ["1.0"], so the constructor survives). Non-finite floats
    serialize as [null] — JSON has no NaN or infinity — and therefore do
    {e not} round-trip: they come back as {!Null}. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of t_float
  | String of string
  | List of t list
  | Obj of (string * t) list

and t_float = float
(** Non-finite floats serialize as [null] (JSON has no NaN/infinity). *)

val to_string : t -> string
(** Compact serialization (single line, no trailing newline). *)

val write_file : string -> t -> unit
(** Serialize into a file, truncating it. Raises [Sys_error] on I/O
    failure. *)

(** {1 Parsing} *)

val parse : string -> (t, string) result
(** Parse one complete JSON document. Whole numbers become {!Int}
    (degrading to {!Float} beyond the native range); numbers with a
    fraction or exponent become {!Float}. Object member order and
    duplicate keys are preserved. [\u]-escapes are decoded to UTF-8,
    surrogate pairs combined; lone surrogates are rejected. [Error]
    on malformed input or nesting deeper than 512, carrying the byte
    offset ["at byte N: ..."]. *)

(** {1 Accessors} *)

val member : string -> t -> t option
(** Object member by key ([None] on non-objects and absent keys; the
    first binding wins on duplicate keys). *)

val to_int_opt : t -> int option
val to_string_opt : t -> string option

val equal : t -> t -> bool
(** Structural equality; floats compare with [Float.equal], so [Float
    nan] equals itself (unlike [=]) and [0.] equals [-0.]. *)
