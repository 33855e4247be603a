(** The [nettomo serve] JSON-lines request/response protocol.

    One request per line on stdin, one response per line on stdout,
    flushed per response. Every request carries an ["id"] (echoed back
    verbatim) and an ["op"]; every response carries the ["id"], a
    ["status"] of ["ok"] or ["error"], and — unless disabled — the
    ["wall_ms"] spent handling the request. Error responses carry a
    stable machine-readable ["code"] (see {!type:code}) next to a
    human-facing ["error"] message; clients should dispatch on the
    code and must not match on message wording. Malformed JSON yields
    a [bad_json] response with a [null] id; the server never crashes
    on bad input (invariant violations under [NETTOMO_CHECK] do
    propagate, by design — they signal an engine bug).

    Operations:
    - [{"id",…,"op":"load","edges":"0 1\n1 2\n…","monitors":[0,1],
       "seed":7}] — parse an {!Nettomo_topo.Edgelist} document and
      start a fresh session ([seed] optional). Responds with the
      network shape and fingerprint.
    - [{"op":"delta","action":"add_link","u":4,"v":7}] — apply one
      {!Session.delta}; actions [add_node]/[remove_node] take
      ["node"], link actions take ["u"]/["v"], [set_monitors] takes
      ["monitors"]. Invalid deltas return an error and leave the
      session unchanged.
    - [{"op":"identifiable"}], [{"op":"classify"}], [{"op":"mmp"}],
      [{"op":"plan"}], [{"op":"coverage"}], [{"op":"solve"}] — the
      session queries. [coverage] responds with the per-link
      identifiability verdicts and reasons of
      {!Nettomo_coverage.Coverage.classify}; [solve] responds with the
      link metrics recovered from the constructive walk campaign of
      {!Nettomo_measure.Solve} (ground truth drawn from the session
      seed).
    - [{"op":"augment","k":3}] — greedy monitor augmentation
      ({!Nettomo_coverage.Coverage.augment}); [k] is optional and
      defaults to 1.
    - [{"op":"batch","queries":["identifiable","mmp"]}] — independent
      queries fanned out over the pool; responds with a ["results"]
      array in request order, deterministic across [--jobs]. A batched
      ["augment"] runs with the default budget of 1.
    - [{"op":"stats"}] — the session's {!Session.stats} counters plus
      the persistent-store counters ([store_hits] / [store_misses] /
      [store_corrupt_skips] / [store_puts] / [store_evictions], all
      zero when no store is attached).
    - [{"op":"slow","limit":16}] — the process-wide slow-request ring
      ({!Nettomo_obs.Obs.Slow}): entries newest first, each with the
      request/connection ids, op, session fingerprint, wall and queue
      time, the per-layer stat breakdown and the captured span tree.
      Needs no session.
    - [{"op":"status"}] — liveness snapshot. On the socket front door
      the dispatcher intercepts this op and answers directly (uptime,
      per-connection in-flight requests, pool utilization, store
      occupancy) without a pool round-trip — it responds even when
      every pool slot is busy. This module's fallback handles the
      stdin loop.

    See the README for a worked transcript. *)

type t

(** Stable error codes — the machine-readable half of every error
    response. New codes may be added; existing ones never change
    meaning. *)
type code =
  | Bad_json  (** the request line did not parse as JSON *)
  | Bad_request
      (** missing or mistyped field, unknown op / query / delta action *)
  | No_session  (** an op that needs a session arrived before [load] *)
  | Bad_topology
      (** [load]'s edgelist did not parse, or the network was invalid *)
  | Invalid_delta  (** the delta was rejected; the session is unchanged *)
  | Query_failed
      (** the library rejected the query (precondition failure) *)
  | Overloaded
      (** the server shed the connection under load (too many
          connections, or the pool queue-wait p95 over threshold);
          retry later against the same address *)

val code_to_string : code -> string
(** The wire rendering, e.g. [Bad_request] ↦ ["bad_request"]. *)

val error_response : ?id:Nettomo_util.Jsonx.t -> code -> string -> string
(** A standalone error response line (no trailing newline, no
    [wall_ms] — the request was never handled). Used by the socket
    server for conditions that arise before a request reaches a
    session: load shedding ([Overloaded]) and oversized request lines
    ([Bad_request]). [id] defaults to [null]. *)

val create :
  ?pool:Nettomo_util.Pool.t ->
  ?seed:int ->
  ?emit_wall_ms:bool ->
  ?store:Nettomo_store.Store.t ->
  ?slow_ms:float ->
  unit ->
  t
(** A server with no session loaded. [pool] serves batch fan-out
    (serial when absent); [seed] (default 7) is the default session
    seed; [emit_wall_ms] (default [true]) controls the ["wall_ms"]
    response field — golden-file tests turn it off for byte-stable
    output; [store] is handed to every session the server creates,
    and is the store [stats] and [status] report (no store when
    absent: the environment is read by [nettomo serve], not here);
    [slow_ms] arms slow-request capture — any
    request whose wall time reaches the threshold has its span tree
    and per-layer breakdown pushed onto {!Nettomo_obs.Obs.Slow} and
    logged at [warn]. *)

val handle_line : ?ctx:Nettomo_obs.Obs.Ctx.t -> t -> string -> string
(** Process one request line into one response line (no trailing
    newline). Never raises on malformed input.

    [ctx] is the request's attribution context; the socket dispatcher
    allocates it (carrying the connection id and the queue wait) and
    the stdin loop omits it, in which case a fresh one (conn [-1]) is
    allocated here. Dispatch runs with the context installed as the
    domain's ambient {!Nettomo_obs.Obs.Ctx}, so every span and log
    event emitted below carries the originating request id. *)

val peek_op : string -> string option
(** The ["op"] field of a request line, if the line parses and has
    one — the socket dispatcher's routing peek (status interception)
    that must not consume a pool slot. *)

val request_id : string -> Nettomo_util.Jsonx.t
(** The ["id"] field of a request line, [Null] when absent or
    unparseable. *)

val ok_response : ?id:Nettomo_util.Jsonx.t -> (string * Nettomo_util.Jsonx.t) list -> string
(** A standalone ok response line (no trailing newline): [id],
    ["status":"ok"], then [payload]. Used by the socket dispatcher for
    responses it answers itself ([status]). *)

val serve : t -> in_channel -> out_channel -> unit
(** Read requests until EOF, writing and flushing one response per
    line. Blank (whitespace-only) lines are skipped. Framing goes
    through {!Framing}, so a final request line that reaches EOF
    without a trailing newline is still answered — same rule as the
    socket server. *)
