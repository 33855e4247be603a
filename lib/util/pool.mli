(** Fixed-size worker pool over OCaml 5 domains.

    The pool owns [jobs - 1] worker domains; the calling domain is the
    remaining worker, so a pool with [jobs = 1] spawns nothing and runs
    every task in the caller — the degenerate case is serial execution,
    byte-for-byte.

    Determinism contract: {!map} writes each result into the slot of
    its input index, so for a pure [f] the outcome is independent of
    [jobs] and scheduling. Parallel Monte-Carlo sweeps rely on this:
    a run with [--jobs n] must be bit-identical to [--jobs 1].

    Exception contract: the first exception raised by [f] (in input
    order of chunks as they fail, first recorded wins) is re-raised in
    the caller with its original backtrace once every in-flight chunk
    of the call has settled. Remaining chunks of a failed call are
    skipped, not run.

    The runtime invariant layer ({!Invariant}) is domain-safe: its
    switch is an atomic read, so worker tasks may call
    [Invariant.check] freely. *)

type t

val create : jobs:int -> t
(** [create ~jobs] spawns [jobs - 1] worker domains. [jobs] must be in
    [\[1, 128\]]; raises [Invalid_argument] otherwise. *)

val jobs : t -> int
(** Parallel width of the pool, as given to {!create}. *)

val idle_slots : t -> int
(** Number of slots the most recent {!map} call could not put to work
    (fewer chunks than workers): [jobs - min jobs n_chunks], or [jobs]
    after a map over an empty array. Also exported as the
    [pool_slots_idle] gauge on the Obs registry. [0] before the first
    map. {!submit} maintains the same instrument as [jobs] minus the
    number of currently-running submitted tasks, so a fully drained
    server reads [idle_slots = jobs]. *)

val queue_wait : t -> Nettomo_obs.Obs.Metrics.histogram
(** The pool's queue-wait histogram (seconds between enqueue and the
    moment a slot picks the task up) — the admission-control signal of
    the serve front door, read through
    {!Nettomo_obs.Obs.Metrics.histogram_quantile}. *)

val running : t -> int
(** Number of {!submit}ted tasks currently executing — the
    numerator of pool utilization as reported by the serve [status]
    endpoint. Instantaneous and approximate (an atomic read, not a
    synchronization point). *)

val map : t -> ('a -> 'b) -> 'a array -> 'b array
(** [map pool f items] is [Array.map f items], computed by the pool in
    chunks of consecutive items: about four chunks per worker, at least
    one item each, so up to [4·jobs] items go one per chunk. Result
    order matches input order regardless of scheduling.

    When the calling domain has an ambient {!Nettomo_obs.Obs.Ctx}
    installed, it is {!Nettomo_obs.Obs.Ctx.fork}ed once at map entry
    and installed around every chunk, so spans recorded inside [f] on
    worker domains carry the originating request id and parent to the
    span that called [map]. *)

val submit : ?ctx:Nettomo_obs.Obs.Ctx.t -> t -> (unit -> unit) -> unit
(** [submit pool task] enqueues a one-off task for the worker domains
    and returns immediately; unlike {!map} the caller does not
    participate. When [ctx] is given it is forked on the submitting
    domain and installed as the ambient context around [task], so
    spans and log events emitted by the task carry the originating
    request id. On a [jobs = 1] pool (which spawns no workers) the
    task instead runs synchronously in the caller before [submit]
    returns — serial execution, never deadlock, consistent with the
    pool-wide [jobs = 1] contract. Tasks run in FIFO order but
    concurrently with each other (and with {!map} chunks); callers
    needing per-stream ordering must serialize their own submissions,
    as the serve dispatcher does with its one-in-flight-per-connection
    rule. A task that raises terminates its worker domain — reserve
    [submit] for tasks that handle their own errors. Raises
    [Invalid_argument] on a closed pool. *)

val close : t -> unit
(** Shut the workers down and join them. Idempotent. Calling {!map} on
    a closed pool raises [Invalid_argument]. *)

val with_pool : jobs:int -> (t -> 'a) -> 'a
(** [with_pool ~jobs f] runs [f] with a fresh pool, closing it on the
    way out (also on exception). *)
