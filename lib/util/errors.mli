(** The designated raising module of the library.

    Project rule (enforced by [nettomo-lint]'s [bare-failwith] rule): code
    under [lib/] never calls bare [failwith] or [invalid_arg]. Precondition
    violations go through {!invalid_arg}/{!invalid_argf} — still raising
    the standard [Invalid_argument], so documented contracts are
    unchanged — and internal errors that are not precondition violations
    raise the named {!Error} exception (or a dedicated per-module
    exception such as [Edgelist.Parse_error]). Routing every raise through
    one module keeps the escape hatches greppable and auditable. *)

exception Error of string
(** Internal error that is neither a caller precondition violation nor
    worth a dedicated per-module exception. A printer is registered. *)

val invalid_arg : string -> 'a
(** Raise [Invalid_argument] — precondition violation by the caller. *)

val invalid_argf : ('a, unit, string, 'b) format4 -> 'a
(** [invalid_argf fmt …] formats and raises [Invalid_argument]. *)

val error : string -> 'a
(** Raise {!Error}. *)
