(** Persistent content-addressed artifact store.

    A store is a directory of small files, one artifact per file, keyed
    by caller-chosen content-addressed keys (the engine derives them
    from {!Nettomo_engine.Fingerprint} hashes, so a key names the exact
    network state an artifact was computed for — invalidation is by
    construction: a changed state is a different key, i.e. an ordinary
    miss). See DESIGN.md §11 for the full design.

    On-disk format (per entry): a fixed 21-byte header — the 4-byte
    magic ["NTST"], a 1-byte format version, the 8-byte little-endian
    payload length and the 8-byte little-endian FNV-1a checksum of the
    payload ({!Nettomo_util.Checksum}) — followed by the raw payload
    bytes. Entries are published atomically: the full file is written
    to a dot-prefixed temporary name in the same directory and then
    [rename(2)]d over the destination, so readers (including concurrent
    processes) only ever observe complete files.

    The cardinal rule: {b a failed read is a miss, never an error}. A
    missing file counts as a miss; an unreadable, truncated,
    wrong-magic, wrong-version or checksum-violating file counts as a
    corrupt skip and behaves exactly like a miss. Likewise a store
    whose directory cannot be created degrades to an inert store (every
    read misses, every write is dropped). Callers therefore never need
    an error path — a broken store merely loses its speedup.

    Size is bounded: when the directory grows past [max_bytes], the
    oldest entries (by modification time — reads bump it, making the
    policy LRU-ish at the file system's timestamp granularity, with the
    file name as the deterministic tie-break) are evicted until the
    total fits again.

    A [t] is domain-safe and may be shared across concurrent sessions
    (the serve front door hands one handle to every connection):
    counters are atomic {!Nettomo_obs.Obs} cells, reads touch nothing
    else, and the byte budget plus the eviction pass are serialized by
    an internal mutex — concurrent readers never contend with each
    other. Multiple {e processes} may also share one directory — the
    atomic-rename publish keeps every read well-formed, and last writer
    wins per key. *)

type t

val open_dir : ?max_bytes:int -> string -> t
(** Open (creating if necessary) a store rooted at a directory.
    [max_bytes] (default 256 MiB) bounds the total size of the entry
    files; a value [<= 0] disables the bound. Never raises: when the
    directory cannot be created or read, the store opens in an inert
    state ({!usable} is [false]) where every read misses and writes are
    dropped. *)

val usable : t -> bool

val find : t -> string -> string option
(** Look an artifact up by key. [None] on a miss {e or} on any read
    failure (missing, truncated, bad magic/version/checksum — the
    latter are counted as corrupt skips). A successful read bumps the
    entry's modification time. *)

val find_with : t -> string -> decode:(string -> 'a option) -> 'a option
(** {!find} composed with a decoder: a payload that reaches the caller
    passed the checksum, and a [decode] returning [None] (stale or
    foreign encoding) is counted as a corrupt skip and reported as a
    miss — the hit counter only ever counts artifacts the caller could
    actually use. *)

val put : t -> string -> string -> unit
(** Publish an artifact under a key, atomically replacing any previous
    entry. Write failures (full disk, permissions) are swallowed — the
    entry is simply not published. Triggers an eviction pass when the
    store grows past its bound. *)

(** {1 Instrumentation} *)

type stats = {
  hits : int;  (** reads that returned a usable artifact *)
  misses : int;  (** reads of absent keys (and reads on an inert store) *)
  corrupt_skips : int;
      (** reads rejected by the header/checksum/decoder — each also
          behaves as a miss, but is counted here instead *)
  puts : int;  (** successfully published artifacts *)
  evictions : int;  (** entries removed by the size-bound GC *)
}

val stats : t -> stats
(** Counters since {!open_dir} on this handle (not persisted). *)

val occupancy : t -> int * int
(** [(bytes, entries)] currently on disk: the maintained byte total
    (approximate, see [put]) and the entry-file count from one
    directory scan. [(0, 0)] on an inert store. Served by the serve
    [status] endpoint without touching the worker pool.

    Reads attributed to an ambient {!Nettomo_obs.Obs.Ctx} also
    accumulate per-request [store.hits] / [store.misses] /
    [store.corrupt_skips] / [store.bytes] stats, and corrupt skips and
    eviction passes emit [store.corrupt] / [store.evict] events on
    {!Nettomo_obs.Obs.Log}. *)

(** {1 Offline maintenance}

    Directory-level operations for the [nettomo store] CLI: they do not
    need (or count against) an open handle. *)

type entry = {
  file : string;  (** absolute path of the entry file *)
  size : int;  (** on-disk size, header included *)
  mtime : float;
  valid : bool;  (** header and checksum verify *)
}

val entries : string -> entry list
(** All entry files under a directory, each fully verified, sorted by
    file name. An unreadable or absent directory yields []. *)

val gc_dir : string -> max_bytes:int -> int
(** Evict oldest-first until the directory total is at most
    [max_bytes]; returns the number of entries removed. *)
