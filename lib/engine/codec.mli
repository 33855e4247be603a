(** Serialization of engine artifacts for the persistent store.

    Each artifact family is one ['a t]: a schema tag plus a writer and a
    reader over a flat token stream. {!decode} returns [None] on any
    structural mismatch (wrong schema tag, malformed token stream,
    impossible value such as a self-loop link), which
    {!Nettomo_store.Store.find_with} counts as a corrupt skip — an
    ordinary miss. Byte-level integrity (truncation, bit flips) is
    already guaranteed by the store's checksummed framing before a
    payload reaches a decoder here.

    Encodings are deterministic: sets and maps are emitted in their
    canonical (ordered) traversal, so equal artifacts encode to equal
    bytes.

    {!key} fixes the store key scheme (DESIGN.md §11 lists every
    family). Keys embed the content-addressed {!Fingerprint} hashes of
    the state an artifact was derived from — full fingerprint for
    monitor-dependent answers, structure half for topology-only ones,
    per-block hash for decomposition pieces — so invalidation is by
    construction. *)

open Nettomo_graph

type 'a t
(** The codec of one artifact family. *)

val encode : 'a t -> 'a -> string
val decode : 'a t -> string -> 'a option

val key : string -> int64 list -> int list -> string
(** [key tag hashes ints] is the store key [tag-<hash>…-<int>…]: each
    hash as 16 lowercase hex digits, each int in decimal, all joined by
    ['-']. *)

(** {1 Artifact families}

    Session answers carry the library's error message when the query
    failed, so those codecs encode a [result]. *)

val identifiable : (bool, string) result t

val classification :
  (Nettomo_core.Classify.kind Graph.EdgeMap.t, string) result t

val report : (Nettomo_core.Mmp.report, string) result t

val plan :
  net:Nettomo_core.Net.t -> (Nettomo_core.Solver.plan, string) result t
(** The plan's measurement space is a pure function of the graph and is
    rebuilt from [net] on decode rather than serialized; sound because
    plan keys name the exact state the plan was computed for. *)

val components : Triconnected.component list t
(** One biconnected block's triconnected split. *)

val edges : Graph.edge list t
(** One biconnected block's separation pairs. *)

val coverage : (Nettomo_coverage.Coverage.report, string) result t
(** The identifiable / unidentifiable partition is rebuilt from the
    serialized verdict map. *)

val augment : (Nettomo_coverage.Coverage.plan, string) result t

val solution : (Nettomo_measure.Solve.solution, string) result t
(** Metrics are hex-float tokens, so the round-trip is bit-exact. *)
