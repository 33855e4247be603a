(** Plain-text edge-list topology format.

    One link per line as two whitespace-separated integer node
    identifiers; [#] starts a comment; blank lines ignored. An optional
    [node <id>] line declares an isolated node. This is the on-disk
    format used by the CLI and the bundled fixture topologies. *)

open Nettomo_graph

exception Parse_error of { line : int; message : string }
(** Malformed input: [line] is 1-based. A printer is registered, so an
    uncaught [Parse_error] displays as ["line N: ..."]. *)

val of_string : string -> Graph.t
(** Raises {!Parse_error} with a line-numbered message on malformed
    input. *)

val parse : string -> (Graph.t, string) result
(** Exception-free variant of {!of_string}; the error string carries the
    line number. *)

val to_string : Graph.t -> string

val read_file : string -> Graph.t
