(* Disk-backed content-addressed artifact store. See store.mli and
   DESIGN.md §11 for the contract; the load-bearing rules are (a) every
   read failure degrades to a miss and (b) publishes are atomic via
   write-to-temp-then-rename. *)

let magic = "NTST"
let format_version = 1
let suffix = ".ntst"

(* magic (4) + version (1) + payload length LE (8) + fnv64 LE (8) *)
let header_len = 21
let default_max_bytes = 256 * 1024 * 1024

module Obs = Nettomo_obs.Obs

(* Counters live on the Obs registry (one instrument set per handle, so
   [stats] keeps exact per-store values while the process-wide metrics
   dump aggregates across handles); the histograms record get/put/gc
   latency. *)
type counters = {
  hits : Obs.Metrics.counter;
  misses : Obs.Metrics.counter;
  corrupt_skips : Obs.Metrics.counter;
  puts : Obs.Metrics.counter;
  evictions : Obs.Metrics.counter;
  get_s : Obs.Metrics.histogram;
  put_s : Obs.Metrics.histogram;
  gc_s : Obs.Metrics.histogram;
}

type t = {
  dir : string;
  max_bytes : int;
  usable : bool;
  c : counters;
  lock : Mutex.t;
      (* serializes the byte accounting and the eviction pass so one
         handle can be shared across domains (the concurrent serve
         front door hands one store to every connection's session);
         reads never take it — [find] touches only files and atomic
         counters *)
  mutable bytes : int;  (* approximate directory total, maintained by put *)
}

(* Temp-file names must be unique per writer: across processes the pid
   disambiguates, and within a process this atomic counter does — two
   handles on different domains must never share a temp name, or the
   atomic-publish guarantee is lost before the rename even happens. *)
let tmp_counter = Atomic.make 0

type stats = {
  hits : int;
  misses : int;
  corrupt_skips : int;
  puts : int;
  evictions : int;
}

type entry = { file : string; size : int; mtime : float; valid : bool }

(* ---------- framing ---------- *)

let pack payload =
  let n = String.length payload in
  let b = Bytes.create (header_len + n) in
  Bytes.blit_string magic 0 b 0 4;
  Bytes.set b 4 (Char.chr format_version);
  Bytes.set_int64_le b 5 (Int64.of_int n);
  Bytes.set_int64_le b 13 (Nettomo_util.Checksum.fnv64 payload);
  Bytes.blit_string payload 0 b header_len n;
  Bytes.unsafe_to_string b

let unpack raw =
  if String.length raw < header_len then None
  else if not (String.equal (String.sub raw 0 4) magic) then None
  else if Char.code raw.[4] <> format_version then None
  else
    let b = Bytes.unsafe_of_string raw in
    let len = Bytes.get_int64_le b 5 in
    let sum = Bytes.get_int64_le b 13 in
    if
      Int64.compare len 0L < 0
      || Int64.compare len (Int64.of_int (String.length raw - header_len)) <> 0
    then None
    else
      let payload = String.sub raw header_len (Int64.to_int len) in
      if Int64.equal (Nettomo_util.Checksum.fnv64 payload) sum then
        Some payload
      else None

(* ---------- paths ---------- *)

let key_ok_char c =
  match c with
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '.' | '_' | '-' -> true
  | _ -> false

let encode_key key =
  let buf = Buffer.create (String.length key + 8) in
  String.iter
    (fun c ->
      if key_ok_char c then Buffer.add_char buf c
      else Buffer.add_string buf (Printf.sprintf "%%%02x" (Char.code c)))
    key;
  Buffer.contents buf

let path_of t key = Filename.concat t.dir (encode_key key ^ suffix)
let is_entry_file name = Filename.check_suffix name suffix

(* ---------- directory scanning ---------- *)

let read_file path =
  try Some (In_channel.with_open_bin path In_channel.input_all)
  with Sys_error _ -> None

let scan_raw dir =
  (* (path, size, mtime) of entry files, unreadable ones skipped *)
  let names = try Sys.readdir dir with Sys_error _ -> [||] in
  Array.sort String.compare names;
  Array.fold_left
    (fun acc name ->
      if not (is_entry_file name) then acc
      else
        let path = Filename.concat dir name in
        match Unix.stat path with
        | st -> (path, st.Unix.st_size, st.Unix.st_mtime) :: acc
        | exception Unix.Unix_error _ -> acc)
    [] names
  |> List.rev

let dir_bytes dir =
  List.fold_left (fun acc (_, size, _) -> acc + size) 0 (scan_raw dir)

(* Oldest first: mtime ascending, file name as deterministic tie-break
   (mtimes often collide at file-system timestamp granularity). *)
let oldest_first files =
  List.sort
    (fun (pa, _, ma) (pb, _, mb) ->
      let c = Float.compare ma mb in
      if c <> 0 then c else String.compare pa pb)
    files

let evict_down dir ~max_bytes =
  let files = scan_raw dir in
  let total = List.fold_left (fun acc (_, size, _) -> acc + size) 0 files in
  let removed = ref 0 in
  let remaining = ref total in
  List.iter
    (fun (path, size, _) ->
      if !remaining > max_bytes then (
        (try Sys.remove path with Sys_error _ -> ());
        remaining := !remaining - size;
        incr removed))
    (oldest_first files);
  (!removed, !remaining)

(* ---------- lifecycle ---------- *)

let rec mkdir_p dir =
  if Sys.file_exists dir then Sys.is_directory dir
  else
    let parent = Filename.dirname dir in
    (String.equal parent dir || mkdir_p parent)
    &&
    match Unix.mkdir dir 0o755 with
    | () -> true
    | exception Unix.Unix_error (Unix.EEXIST, _, _) -> Sys.is_directory dir
    | exception Unix.Unix_error _ -> false

let open_dir ?(max_bytes = default_max_bytes) dir =
  let usable = mkdir_p dir in
  let c : counters =
    {
      hits = Obs.Metrics.counter "store_hits_total";
      misses = Obs.Metrics.counter "store_misses_total";
      corrupt_skips = Obs.Metrics.counter "store_corrupt_skips_total";
      puts = Obs.Metrics.counter "store_puts_total";
      evictions = Obs.Metrics.counter "store_evictions_total";
      get_s = Obs.Metrics.histogram "store_get_seconds";
      put_s = Obs.Metrics.histogram "store_put_seconds";
      gc_s = Obs.Metrics.histogram "store_gc_seconds";
    }
  in
  let bytes = if usable && max_bytes > 0 then dir_bytes dir else 0 in
  { dir; max_bytes; usable; c; lock = Mutex.create (); bytes }

let usable t = t.usable

let stats t =
  {
    hits = Obs.Metrics.counter_value t.c.hits;
    misses = Obs.Metrics.counter_value t.c.misses;
    corrupt_skips = Obs.Metrics.counter_value t.c.corrupt_skips;
    puts = Obs.Metrics.counter_value t.c.puts;
    evictions = Obs.Metrics.counter_value t.c.evictions;
  }

let occupancy t =
  if not t.usable then (0, 0)
  else begin
    Mutex.lock t.lock;
    let bytes = t.bytes in
    Mutex.unlock t.lock;
    (bytes, List.length (scan_raw t.dir))
  end

(* ---------- reads ---------- *)

let touch path =
  (* LRU bump; the sticks-out value 0.0/0.0 means "now" to utimes. *)
  try Unix.utimes path 0.0 0.0 with Unix.Unix_error _ -> ()

let find_with t key ~decode =
  let t0 = Obs.Clock.now () in
  (* Fun.protect, not a finish-wrapper on each branch: a raising
     [decode] must still observe get latency. *)
  Fun.protect
    ~finally:(fun () ->
      Obs.Metrics.observe t.c.get_s (Float.max 0. (Obs.Clock.now () -. t0)))
    (fun () ->
      if not t.usable then (
        Obs.Metrics.incr t.c.misses;
        None)
      else
        let path = path_of t key in
        match read_file path with
        | None ->
            Obs.Metrics.incr t.c.misses;
            Obs.Ctx.add_ambient "store.misses" 1.;
            None
        | Some raw -> (
            match unpack raw with
            | None ->
                Obs.Metrics.incr t.c.corrupt_skips;
                Obs.Ctx.add_ambient "store.corrupt_skips" 1.;
                Obs.Log.warn "store.corrupt" [ ("key", Obs.Log.Str key) ];
                None
            | Some payload -> (
                match decode payload with
                | None ->
                    Obs.Metrics.incr t.c.corrupt_skips;
                    Obs.Ctx.add_ambient "store.corrupt_skips" 1.;
                    Obs.Log.warn "store.corrupt"
                      [ ("key", Obs.Log.Str key); ("stage", Obs.Log.Str "decode") ];
                    None
                | Some v ->
                    Obs.Metrics.incr t.c.hits;
                    Obs.Ctx.add_ambient "store.hits" 1.;
                    Obs.Ctx.add_ambient "store.bytes"
                      (float_of_int (String.length payload));
                    touch path;
                    Some v)))

let find t key = find_with t key ~decode:(fun payload -> Some payload)

(* ---------- writes ---------- *)

(* Caller must hold [t.lock]: the decision, the eviction pass and the
   accounting reset form one critical section, so two domains cannot
   double-evict over the same directory snapshot. *)
let gc_if_over_locked t =
  if t.max_bytes > 0 && t.bytes > t.max_bytes then (
    let t0 = Obs.Clock.now () in
    Fun.protect
      ~finally:(fun () ->
        Obs.Metrics.observe t.c.gc_s (Float.max 0. (Obs.Clock.now () -. t0)))
      (fun () ->
        let removed, remaining = evict_down t.dir ~max_bytes:t.max_bytes in
        Obs.Metrics.incr ~by:removed t.c.evictions;
        if removed > 0 then
          Obs.Log.info "store.evict"
            [ ("removed", Obs.Log.Int removed); ("bytes", Obs.Log.Int remaining) ];
        t.bytes <- remaining))

let put t key payload =
  if t.usable then (
    (* nettomo-lint: allow span-bracket — put_s deliberately times only
       successful publishes; every failure path below is caught and
       degrades to a no-op per the cardinal rule, so the bracket cannot
       leak through an exception. *)
    let t0 = Obs.Clock.now () in
    let path = path_of t key in
    let tmp =
      Filename.concat t.dir
        (Printf.sprintf ".tmp-%d-%d" (Unix.getpid ())
           (Atomic.fetch_and_add tmp_counter 1))
    in
    let raw = pack payload in
    let old_size =
      match Unix.stat path with
      | st -> st.Unix.st_size
      | exception Unix.Unix_error _ -> 0
    in
    match
      Out_channel.with_open_bin tmp (fun oc -> Out_channel.output_string oc raw)
    with
    | exception Sys_error _ -> ( try Sys.remove tmp with Sys_error _ -> ())
    | () -> (
        match Sys.rename tmp path with
        | exception Sys_error _ -> (
            try Sys.remove tmp with Sys_error _ -> ())
        | () ->
            Obs.Metrics.incr t.c.puts;
            Obs.Ctx.add_ambient "store.put_bytes"
              (float_of_int (String.length raw));
            Mutex.lock t.lock;
            Fun.protect
              ~finally:(fun () -> Mutex.unlock t.lock)
              (fun () ->
                t.bytes <- t.bytes - old_size + String.length raw;
                gc_if_over_locked t);
            Obs.Metrics.observe t.c.put_s
              (Float.max 0. (Obs.Clock.now () -. t0))))

(* ---------- offline maintenance ---------- *)

let entries dir =
  List.map
    (fun (path, size, mtime) ->
      let valid =
        match read_file path with
        | None -> false
        | Some raw -> Option.is_some (unpack raw)
      in
      { file = path; size; mtime; valid })
    (List.sort
       (fun (pa, _, _) (pb, _, _) -> String.compare pa pb)
       (scan_raw dir))

let gc_dir dir ~max_bytes =
  let removed, _ = evict_down dir ~max_bytes in
  removed
