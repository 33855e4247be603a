(** Process-wide observability: an injectable clock, a metrics
    registry (counters / gauges / histograms), a span tracer with
    Chrome [trace_event] export, per-request contexts, a structured
    JSON-lines event log and a bounded slow-request ring.

    This library sits {e below} every other nettomo library (it
    depends only on [unix]) so that even [Nettomo_util.Pool] can be
    instrumented.  Nothing in here ever perturbs computed results:
    disabled tracing costs one atomic read plus one domain-local read
    per span, a disabled log costs one atomic read per event, and all
    exported artefacts (metrics dump, trace JSON, event log) live
    outside the golden-compared output streams. *)

module Clock : sig
  (** Injectable wall clock.  All wall-time in the code base must go
      through {!now}; the [wall-clock] lint rule forbids calling
      [Unix.gettimeofday] / [Unix.time] anywhere else.  Tests and
      golden runs install the deterministic fake clock so that traces
      and timings are byte-reproducible. *)

  val now : unit -> float
  (** Current time in seconds.  Real mode: [Unix.gettimeofday].  Fake
      mode: a deterministic counter — {e every read advances the
      clock by one fake millisecond}, so successive reads are strictly increasing
      and two identical runs observe identical timestamps. *)

  val use_real : unit -> unit
  (** Switch to the real clock (the default). *)

  val use_fake : unit -> unit
  (** Switch to the deterministic fake clock, resetting its tick
      counter: it starts at [0.] and each read advances it by
      [0.001] (one fake millisecond). *)

  val is_fake : unit -> bool
end

module Metrics : sig
  (** Registry of named instruments.  Instruments are per-instance
      handles (a [Session] and a [Store] each own theirs, so their
      [stats] records keep exact per-instance values).  The registry
      keeps one cell per series — a (name, sorted labels) pair — and
      every update through a handle lands in both the handle's own
      cell and its series cell: counters and histograms add the same
      amount, a gauge adds the change in its own value.  A series thus
      holds the sum over every handle ever registered under it (since
      the last {!reset}), and a dropped handle leaves nothing behind
      but its share of that sum, so creating and dropping instances
      does not grow the registry.  A handle whose kind clashes with
      the series first registered under its name and labels keeps its
      values to itself and stays out of {!dump}. *)

  type counter
  type gauge
  type histogram

  val counter : ?labels:(string * string) list -> string -> counter
  (** Register a fresh counter cell under [name].  Counters are
      monotonically non-decreasing ints, incremented lock-free via
      [Atomic] and therefore safe across Pool domains. *)

  val incr : ?by:int -> counter -> unit
  val counter_value : counter -> int

  val gauge : ?labels:(string * string) list -> string -> gauge
  val set_gauge : gauge -> float -> unit
  val gauge_value : gauge -> float

  val default_buckets : float list
  (** Latency-oriented upper bounds in seconds, log-linear: eight per
      decade, [m·10{^e}] for [m] in [1, 1.5, 2, 3, 4, 5, 6, 8] and [e]
      from -6 to 0, then [10.]. Consecutive bounds are at most 1.5×
      apart, so a quantile read off them (see {!histogram_quantile}) is
      within that factor of the true value between 1e-6 and 10 s. Every
      histogram uses them. *)

  val histogram : ?labels:(string * string) list -> string -> histogram
  (** Fixed-bucket histogram over {!default_buckets}, read as
      {e inclusive} upper bounds (Prometheus [le] convention): an
      observation [v] lands in the first bucket whose bound [b]
      satisfies [v <= b], and above the last bound it lands in the
      implicit [+Inf] bucket. *)

  val observe : histogram -> float -> unit
  val histogram_count : histogram -> int
  val histogram_sum : histogram -> float

  val histogram_quantile : histogram -> float -> float
  (** [histogram_quantile h q] estimates the [q]-quantile ([q] clamped
      to [\[0, 1\]]) from the bucket counts: the smallest bucket bound
      whose cumulative count reaches [q * total].  Returns [0.] on an
      empty histogram, and the largest finite bound when the quantile
      lands in the implicit [+Inf] bucket (a deliberate under-estimate
      — callers compare against thresholds, where "at least this much"
      is the safe direction).  Load shedding in the serve front door
      reads the pool queue-wait p95 through this. *)

  val dump : unit -> string
  (** Prometheus-style text exposition of every series, sorted by
      name and labels, hence deterministic for a given set of
      updates.  Its cost grows with the number of distinct series,
      not with the number of handles ever created.  Histograms emit
      cumulative [_bucket{le="..."}] lines plus [_sum] / [_count]. *)

  val reset : unit -> unit
  (** Forget every series (test isolation).  Existing handles keep
      working but their updates no longer appear in {!dump}; handles
      registered afterwards start new series. *)
end

module Ctx : sig
  (** Per-request attribution context.  A context is allocated once
      at the serve/Protocol boundary (one per request line), carries
      the request id, originating connection id and session
      fingerprint, and is installed as the {e ambient} context of the
      domain running the request via {!with_ctx}.  Layers below the
      boundary (Session, Store) attribute work to the request through
      {!add_ambient} without their APIs mentioning contexts at all;
      work shipped to other domains is re-parented with {!fork} by
      [Pool.submit ~ctx] / [Pool.map], so spans emitted on worker
      domains still carry the originating request id. *)

  type t

  val make : ?conn:int -> ?op:string -> unit -> t
  (** Allocate a context with a fresh process-unique request id, no
      session yet and span collection off.  [conn] is the serve
      connection id ([-1], the default, means "not a socket
      connection" — e.g. the stdin serve loop). *)

  val fork : t -> t
  (** A handle for shipping the request to another domain: same
      request id, connection, session, shared stats and span
      accumulators — but the parent span is re-captured from the
      {e calling} domain's innermost open span, so spans recorded on
      the target domain link back to the span that forked them. *)

  val current : unit -> t option
  (** The ambient context of the calling domain, if any. *)

  val with_ctx : t -> (unit -> 'a) -> 'a
  (** [with_ctx c f] installs [c] as the calling domain's ambient
      context for the duration of [f] (restored on exception). *)

  val req : t -> int
  val conn : t -> int
  val op : t -> string

  val queue : t -> float
  (** Seconds the request spent waiting for a pool slot (set by the
      serve front door before the worker runs the request). *)

  val set_session : t -> string -> unit
  val set_op : t -> string -> unit
  val set_queue : t -> float -> unit

  val set_collect : t -> bool -> unit
  (** Turn span collection into the context (the slow-request capture
      path) on or off. *)

  val add_ambient : string -> float -> unit
  (** Accumulate [v] under [name] in the ambient context's per-request
      stat table (thread-safe; shared across {!fork} copies); a no-op
      when none is installed.  This is how Session and Store report
      block-cache hits, memo hits, store bytes, … without threading [t]
      through their signatures. *)

  val stats : t -> (string * float) list
  (** Accumulated stats, sorted by name. *)

  val spans : t -> (string * float * float * int * int) list
  (** Spans collected while collection is on: [(name, start_s, dur_s, id,
      parent)] in close order, across all domains that ran under this
      context (or a {!fork} of it). *)

  val reset_ids : unit -> unit
  (** Reset the process-global request- and span-id allocators (test
      isolation / reproducible golden runs). *)
end

module Log : sig
  (** Leveled, rate-limited structured event log: one JSON object per
      line, fields in a fixed order ([ts], [level], [event], [req],
      [conn], then the caller's fields in the order given) so a
      fake-clock run serializes byte-identically.  Events are dropped
      before the clock is read when the log is disabled or the level
      is below the threshold — an idle log never consumes fake-clock
      ticks.  Per event name, at most [rate_limit] lines are written
      per one-second window (measured on event timestamps); the
      excess is counted and surfaced as a [log.suppressed] line when
      the window rolls. *)

  type level = Debug | Info | Warn | Error

  type value = Str of string | Int of int | Float of float | Bool of bool
  (** Field values.  Floats render via the metrics float formatter,
      hence deterministically. *)

  val level_of_string : string -> level option
  (** Case-insensitive; accepts ["debug"], ["info"], ["warn"],
      ["warning"], ["error"]. *)

  val set_level : level -> unit
  (** Minimum level written (default [Info]). *)

  val set_rate_limit : int -> unit
  (** Per-event-name lines per one-second window (default 200,
      clamped to >= 1). *)

  val to_file : string -> unit
  (** Truncate [path] and write subsequent events there (closing any
      previously installed file). *)

  val to_buffer : Buffer.t -> unit
  (** Additionally mirror events into [b] (test sink). *)

  val disable : unit -> unit
  (** Close the file sink, drop the buffer sink, forget rate-limit
      windows. *)

  val debug : ?ctx:Ctx.t -> string -> (string * value) list -> unit
  (** [debug name fields] writes one line at level [Debug].  The
      request/connection fields come from [ctx] when given, else from
      the ambient {!Ctx.current}; both absent means the line carries
      neither. *)

  val info : ?ctx:Ctx.t -> string -> (string * value) list -> unit
  val warn : ?ctx:Ctx.t -> string -> (string * value) list -> unit
  (** As {!debug}, at levels [Info] and [Warn]. *)
end

module Slow : sig
  (** Bounded ring of slow-request captures, newest first.  The serve
      layer notes an entry whenever a request's wall time exceeds the
      configured [--slow-ms]; the ring is queryable in-band via the
      serve [slow] op and [nettomo obs slow]. *)

  type entry = {
    req : int;
    conn : int;
    op : string;
    session : string;
    wall_s : float;
    queue_s : float;
    stats : (string * float) list;  (** per-layer breakdown, sorted *)
    spans : (string * float * float * int * int) list;
        (** [(name, start_s, dur_s, id, parent)] in close order *)
  }

  val set_capacity : int -> unit
  (** Ring capacity (default 64, clamped to >= 1); shrinking drops the
      oldest entries. *)

  val capacity : unit -> int

  val note : entry -> unit
  (** Push an entry, evicting the oldest beyond capacity. *)

  val of_ctx : Ctx.t -> wall_s:float -> entry
  (** Build an entry from a finished request's context. *)

  val recent : ?limit:int -> unit -> entry list
  (** Newest first, at most [limit] (default: everything retained). *)

  val length : unit -> int
  val clear : unit -> unit
end

module Trace : sig
  (** Span tracer.  Spans nest per domain (the bracket API closes
      them in LIFO order by construction, guaranteed even on
      exceptions), are recorded into a fixed ring buffer at close
      time, and are additionally folded into a name-keyed aggregate
      table that survives ring wrap-around — Monte-Carlo loops emit
      far more spans than any sane ring size.

      Every span carries a process-unique id and its parent's id: the
      innermost open span of the recording domain, or — when the
      domain's stack is empty — the span that was innermost when the
      ambient context was made or forked to this domain.  Spans recorded
      under an ambient {!Ctx} also carry the originating request and
      connection ids, which is what lets [nettomo obs check-trace]
      reassemble one parent–child tree per request across domains. *)

  val enable : unit -> unit
  val disable : unit -> unit
  val enabled : unit -> bool

  val span : ?attrs:(string * string) list -> string -> (unit -> 'a) -> 'a
  (** [span name f] runs [f ()]; when tracing is enabled (or the
      ambient context is collecting for slow-capture) it records a
      span covering the call (duration clamped to [>= 0.]).  When
      both are off the overhead is one atomic read plus one
      domain-local read. *)

  val events : unit -> (string * float * float * int) list
  (** The ring contents in close order: [(name, start_s, dur_s, tid)].
      At most the ring capacity (the oldest spans are overwritten). *)

  val records : unit -> (string * int * int * int * int) list
  (** The ring contents in close order with identity fields:
      [(name, id, parent, req, conn)] ([-1] where absent). *)

  val summary : unit -> (string * (int * float)) list
  (** Aggregate per span name: [(name, (count, total_seconds))],
      sorted by name.  Unlike {!events} this never loses spans. *)

  val to_chrome_json : unit -> string
  (** The ring as Chrome [trace_event] JSON (an object with a
      [traceEvents] array of ["ph":"X"] complete events; timestamps
      in microseconds, rebased to the earliest span).  The [tid]
      field is the {e logical} track — the serve connection id when
      the span ran under a connection's context, else the physical
      domain id — so exports are stable across [--jobs]; [args]
      carries [span] / [parent] / [req] / [conn] ids.  Load via
      [chrome://tracing] or [https://ui.perfetto.dev]. *)

  val clear : unit -> unit
  (** Drop all recorded spans and aggregates and reset the span-id
      allocator (test isolation / run separation).  Leaves the
      enabled flag untouched. *)
end
