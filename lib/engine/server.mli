(** Concurrent multi-client serve front door.

    Accepts many simultaneous JSON-lines sessions on a Unix-domain
    socket (or, optionally, loopback TCP) and multiplexes them onto
    one shared worker {!Nettomo_util.Pool}. Each connection speaks
    exactly the single-client {!Protocol}: same requests, same
    responses, same error codes — plus [overloaded], which only the
    server emits.

    {b Determinism contract}: every connection owns a private
    {!Protocol.t} (hence a private {!Session.t}), at most one of its
    requests is in flight at a time, and its request and response
    queues are FIFO — so each connection's response stream is
    byte-identical to replaying that connection's requests serially
    through a fresh [Protocol.t] (with [emit_wall_ms] off; wall times
    are real time). Connections share only the worker pool and, when
    configured, the persistent {!Nettomo_store.Store} — a cross-session
    cache tier whose hits are observable in [stats] counters but never
    in query answers.

    {b Admission control}: a connection is shed at accept time — one
    [overloaded] error response, then close — when the server already
    holds [max_conns] connections, or when the pool's queue-wait p95
    (read from the [pool_queue_wait_seconds] histogram via
    {!Nettomo_obs.Obs.Metrics.histogram_quantile}) exceeds
    [shed_wait_p95]. The kernel listen backlog bounds the accept queue
    in front of that.

    {b Faults}: a mid-request disconnect, a half-written final line, an
    oversized line or a stalled reader never affect other connections.
    An oversized line gets one [bad_request] response and the
    connection is closed; a vanished peer is reaped and its session
    freed. A final line that reaches EOF without a trailing newline is
    a request ({!Framing}'s rule).

    {b Attribution}: the dispatcher allocates one
    {!Nettomo_obs.Obs.Ctx} per request (request id, connection id) and
    hands it to {!Nettomo_util.Pool.submit} and
    {!Protocol.handle_line}, so every span and structured log event a
    request produces — on whichever domain it runs — carries the
    originating request id. Connection lifecycle is logged on
    {!Nettomo_obs.Obs.Log}: [serve.listen], [serve.accept],
    [serve.shed], [serve.scrape], [serve.close], [serve.drain].

    {b Dispatcher-answered endpoints}: a [{"op":"status"}] request
    line, and plain HTTP [GET /metrics] (Prometheus text format,
    {!Nettomo_obs.Obs.Metrics.dump}) / [GET /status] (the same JSON
    snapshot; the HTTP connection closes after the response), are
    answered directly by the dispatcher without a pool round-trip —
    they respond even when every pool slot is busy, which is what
    makes them usable as liveness probes under saturation. The status
    snapshot reports uptime, per-connection in-flight request id / op
    / age, pool and slow-ring utilization and store occupancy.

    Exported metrics (process registry): [serve_connections] gauge,
    [serve_connections_total], [serve_shed_total],
    [serve_requests_total] counters, [serve_request_seconds]
    histogram. *)

type listen =
  | Unix_socket of string
      (** filesystem path; a stale socket file is replaced on bind,
          and the file is removed again when {!run} returns *)
  | Tcp of int  (** loopback only; [0] lets the kernel pick ({!port}) *)

type t

val create :
  ?seed:int ->
  ?emit_wall_ms:bool ->
  ?store:Nettomo_store.Store.t ->
  ?max_conns:int ->
  ?max_line_bytes:int ->
  ?shed_wait_p95:float ->
  ?slow_ms:float ->
  pool:Nettomo_util.Pool.t ->
  listen ->
  t
(** Bind and listen immediately (clients may connect before {!run}
    starts; they are served once it does). [seed], [emit_wall_ms],
    [store] and [slow_ms] (slow-request capture threshold, see
    {!Protocol.create}) are handed to every connection's
    {!Protocol.create}. [max_conns] (default 64) and [shed_wait_p95]
    (seconds; default off — and inert until the pool's queue-wait
    histogram has at least one observation) drive shedding;
    [max_line_bytes] (default 1 MiB) bounds a single request line. The
    kernel accept queue holds 64 connections.
    @raise Unix.Unix_error when the address cannot be bound. *)

val run : t -> unit
(** The dispatcher loop: accept, read, dispatch to the pool, write —
    until {!shutdown}. Call at most once, from the domain that should
    own all connection I/O (typically a dedicated [Domain.spawn]).
    On shutdown it drains: stops accepting and reading, finishes
    in-flight and pending requests, flushes responses, closes
    everything (bounded — a stalled peer cannot hold the drain beyond
    ~10 s). SIGPIPE is ignored for the duration. *)

val shutdown : t -> unit
(** Ask {!run} to drain and return. Domain-safe and idempotent; safe
    to call from a signal handler. *)

val port : t -> int option
(** The bound TCP port ([Some] after a [Tcp] bind — useful with
    [Tcp 0]), [None] for a Unix socket. *)

(** {1 Instrument handles}

    The server's own registry cells, for tests and the soak bench
    (re-registering the same name elsewhere creates a {e fresh} cell —
    dump-aggregation would still add them up, but direct reads need
    these handles). *)

val request_latency : t -> Nettomo_obs.Obs.Metrics.histogram
val connections_gauge : t -> Nettomo_obs.Obs.Metrics.gauge
val shed_total : t -> Nettomo_obs.Obs.Metrics.counter
val requests_total : t -> Nettomo_obs.Obs.Metrics.counter
