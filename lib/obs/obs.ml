(* Observability primitives: injectable clock, metrics registry, span
   tracer, request contexts, structured event log and the slow-request
   ring.  See obs.mli for the contract.  This module is the single
   allowlisted call site of Unix.gettimeofday (wall-clock lint rule)
   and of raw stderr printing (no-raw-stderr lint rule); everything
   else must go through Clock.now / Log. *)

(* Lock-free add on a boxed float: CAS on the physically-read box. *)
let atomic_add_float (a : float Atomic.t) (x : float) =
  let rec go () =
    let old = Atomic.get a in
    if not (Atomic.compare_and_set a old (old +. x)) then go ()
  in
  go ()

(* JSON string escaping, shared by the trace exporter and the event
   log.  This library sits below nettomo_util so it cannot use Jsonx;
   all JSON here is built by hand. *)
let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

module Clock = struct
  type mode =
    | Real
    | Fake of { start : float; step : float; ticks : int Atomic.t }

  let mode = Atomic.make Real

  let now () =
    match Atomic.get mode with
    | Real -> Unix.gettimeofday ()
    | Fake { start; step; ticks } ->
        start +. (step *. float_of_int (Atomic.fetch_and_add ticks 1))

  let use_real () = Atomic.set mode Real

  let use_fake ?(start = 0.) ?(step = 0.001) () =
    Atomic.set mode (Fake { start; step; ticks = Atomic.make 0 })

  let is_fake () =
    match Atomic.get mode with Real -> false | Fake _ -> true
end

module Metrics = struct
  type cell =
    | Counter of int Atomic.t
    | Gauge of float Atomic.t
    | Histogram of {
        bounds : float array; (* strictly increasing, inclusive *)
        counts : int Atomic.t array; (* bounds + implicit +Inf *)
        sum : float Atomic.t;
      }

  (* A handle owns [own], which per-instance readers ([Session.stats],
     [Pool.queue_wait]) see, and shares [series] with every handle of
     the same name and labels: the registry's one cell for that series,
     which [dump] reads. Every update lands in both. *)
  type instrument = { own : cell; series : cell }

  type counter = instrument
  type gauge = instrument
  type histogram = instrument

  let histogram_cell bounds =
    Histogram
      {
        bounds;
        counts = Array.init (Array.length bounds + 1) (fun _ -> Atomic.make 0);
        sum = Atomic.make 0.;
      }

  (* An empty cell of the same kind (and bounds). *)
  let fresh = function
    | Counter _ -> Counter (Atomic.make 0)
    | Gauge _ -> Gauge (Atomic.make 0.)
    | Histogram { bounds; _ } -> histogram_cell bounds

  (* Whether handles of these two cells can share one series: the same
     kind, and for histograms the same bounds. *)
  let compatible a b =
    match (a, b) with
    | Counter _, Counter _ | Gauge _, Gauge _ -> true
    | Histogram { bounds = x; _ }, Histogram { bounds = y; _ } ->
        Array.length x = Array.length y
        && Array.for_all2 (fun u v -> Float.compare u v = 0) x y
    | (Counter _ | Gauge _ | Histogram _), _ -> false

  (* One cell per (name, sorted labels). Dropped handles leave their
     totals behind in the series cell and nothing else, so the registry
     holds only distinct series however many instances come and go.
     nettomo-lint: allow unsafe-shared-mutable — guarded by
     [registry_mu]; every read and write below locks it. *)
  let registry : (string * (string * string) list, cell) Hashtbl.t = Hashtbl.create 64
  let registry_mu = Mutex.create ()

  (* A handle whose kind or bounds clash with the series already
     registered under its key keeps a series of its own, outside the
     registry: the first registration decides what the dump shows. *)
  let register name labels own =
    let key = (name, List.sort (fun (a, _) (b, _) -> String.compare a b) labels) in
    Mutex.lock registry_mu;
    let series =
      match Hashtbl.find_opt registry key with
      | Some series when compatible series own -> series
      | Some _ -> fresh own
      | None ->
          let series = fresh own in
          Hashtbl.add registry key series;
          series
    in
    Mutex.unlock registry_mu;
    { own; series }

  let counter ?(labels = []) name = register name labels (Counter (Atomic.make 0))

  let incr ?(by = 1) c =
    match (c.own, c.series) with
    | Counter a, Counter s ->
        ignore (Atomic.fetch_and_add a by);
        ignore (Atomic.fetch_and_add s by)
    | (Counter _ | Gauge _ | Histogram _), _ -> ()

  let counter_value c =
    match c.own with Counter a -> Atomic.get a | Gauge _ | Histogram _ -> 0

  let gauge ?(labels = []) name = register name labels (Gauge (Atomic.make 0.))

  (* The series of a gauge is the sum of its handles' values, so it
     moves by the change in this handle's value. *)
  let set_gauge g v =
    match (g.own, g.series) with
    | Gauge a, Gauge s ->
        let old = Atomic.exchange a v in
        atomic_add_float s (v -. old)
    | (Counter _ | Gauge _ | Histogram _), _ -> ()

  let gauge_value g =
    match g.own with Gauge a -> Atomic.get a | Counter _ | Histogram _ -> 0.

  (* Eight bounds per decade from 1e-6 to 8, then 10: each parsed from
     its decimal form, so every bound is the double a literal gives and
     the dump prints it the same on every run. *)
  let default_buckets =
    List.concat_map
      (fun e ->
        List.map
          (fun m -> float_of_string (Printf.sprintf "%se%d" m e))
          [ "1"; "1.5"; "2"; "3"; "4"; "5"; "6"; "8" ])
      [ -6; -5; -4; -3; -2; -1; 0 ]
    @ [ 10. ]

  let histogram ?(labels = []) ?(buckets = default_buckets) name =
    let bounds = Array.of_list buckets in
    Array.iteri
      (fun i b ->
        if i > 0 && Float.compare bounds.(i - 1) b >= 0 then
          raise
            (Invalid_argument
               (Printf.sprintf "Obs.Metrics.histogram %s: buckets not increasing"
                  name)))
      bounds;
    register name labels (histogram_cell bounds)

  (* Inclusive upper bounds: v lands in the first bucket with v <= bound,
     else in the trailing +Inf bucket. *)
  let bucket_index bounds (v : float) =
    let n = Array.length bounds in
    let rec go i = if i >= n then n else if v <= bounds.(i) then i else go (i + 1) in
    go 0

  let observe h v =
    let record = function
      | Histogram { bounds; counts; sum } ->
          ignore (Atomic.fetch_and_add counts.(bucket_index bounds v) 1);
          atomic_add_float sum v
      | Counter _ | Gauge _ -> ()
    in
    record h.own;
    record h.series

  let histogram_count h =
    match h.own with
    | Histogram { counts; _ } ->
        Array.fold_left (fun acc a -> acc + Atomic.get a) 0 counts
    | Counter _ | Gauge _ -> 0

  let histogram_sum h =
    match h.own with
    | Histogram { sum; _ } -> Atomic.get sum
    | Counter _ | Gauge _ -> 0.

  (* Quantile estimate from the cumulative bucket counts: the smallest
     bound whose cumulative count reaches q * total. Observations in
     the trailing +Inf bucket report the largest finite bound — an
     under-estimate, but a stable one (admission control compares the
     result against a threshold; "at least this much" is the useful
     direction). *)
  let histogram_quantile h q =
    match h.own with
    | Counter _ | Gauge _ -> 0.
    | Histogram { bounds; counts; _ } ->
        let counts = Array.map Atomic.get counts in
        let total = Array.fold_left ( + ) 0 counts in
        if total = 0 then 0.
        else begin
          let q = Float.max 0. (Float.min 1. q) in
          let rank = q *. float_of_int total in
          let n = Array.length bounds in
          let rec go i cumulative =
            if i >= n then bounds.(n - 1)
            else
              let cumulative = cumulative + counts.(i) in
              if float_of_int cumulative >= rank then bounds.(i)
              else go (i + 1) cumulative
          in
          if n = 0 then 0. else go 0 0
        end

  (* --- text exposition ------------------------------------------------- *)

  let escape_label_value s =
    let b = Buffer.create (String.length s) in
    String.iter
      (fun c ->
        match c with
        | '\\' -> Buffer.add_string b "\\\\"
        | '"' -> Buffer.add_string b "\\\""
        | '\n' -> Buffer.add_string b "\\n"
        | c -> Buffer.add_char b c)
      s;
    Buffer.contents b

  let render_labels = function
    | [] -> ""
    | labels ->
        let parts =
          List.map
            (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (escape_label_value v))
            labels
        in
        "{" ^ String.concat "," parts ^ "}"

  let render_labels_with labels extra =
    render_labels (labels @ [ extra ])

  let float_str v =
    if Float.is_integer v && Float.abs v < 1e15 then
      Printf.sprintf "%.0f" v
    else Printf.sprintf "%.9g" v

  let dump () =
    Mutex.lock registry_mu;
    let series = Hashtbl.fold (fun key cell acc -> (key, cell) :: acc) registry [] in
    Mutex.unlock registry_mu;
    let cmp ((n1, l1), _) ((n2, l2), _) =
      let c = String.compare n1 n2 in
      if c <> 0 then c
      else
        List.compare
          (fun (a, b) (c', d) ->
            let k = String.compare a c' in
            if k <> 0 then k else String.compare b d)
          l1 l2
    in
    let b = Buffer.create 1024 in
    List.iter
      (fun ((name, labels), cell) ->
        match cell with
        | Counter a ->
            Buffer.add_string b
              (Printf.sprintf "%s%s %d\n" name (render_labels labels) (Atomic.get a))
        | Gauge a ->
            Buffer.add_string b
              (Printf.sprintf "%s%s %s\n" name (render_labels labels)
                 (float_str (Atomic.get a)))
        | Histogram { bounds; counts; sum } ->
            let counts = Array.map Atomic.get counts in
            let cumulative = ref 0 in
            Array.iteri
              (fun i bound ->
                cumulative := !cumulative + counts.(i);
                Buffer.add_string b
                  (Printf.sprintf "%s_bucket%s %d\n" name
                     (render_labels_with labels ("le", float_str bound))
                     !cumulative))
              bounds;
            let total = !cumulative + counts.(Array.length bounds) in
            Buffer.add_string b
              (Printf.sprintf "%s_bucket%s %d\n" name
                 (render_labels_with labels ("le", "+Inf"))
                 total);
            Buffer.add_string b
              (Printf.sprintf "%s_sum%s %s\n" name (render_labels labels)
                 (float_str (Atomic.get sum)));
            Buffer.add_string b
              (Printf.sprintf "%s_count%s %d\n" name (render_labels labels)
                 total))
      (List.sort cmp series);
    Buffer.contents b

  let reset () =
    Mutex.lock registry_mu;
    Hashtbl.reset registry;
    Mutex.unlock registry_mu
end

(* --- span identity --------------------------------------------------- *)

(* Process-global span id allocator plus a per-domain stack of open
   span ids: a span opened on any domain knows its lexical parent on
   that domain, and Ctx.fork captures the forking domain's innermost
   span so work shipped to another domain links back to it. *)
let span_ids = Atomic.make 1
let next_span_id () = Atomic.fetch_and_add span_ids 1

let span_stack : int list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let current_span_id () =
  match !(Domain.DLS.get span_stack) with [] -> -1 | id :: _ -> id

module Ctx = struct
  type t = {
    req : int;
    conn : int;
    mutable session : string;
    mutable op : string;
    parent : int; (* span open in the forking domain, -1 at the root *)
    mutable queue : float; (* seconds spent waiting for a pool slot *)
    mutable collect : bool;
    (* nettomo-lint: allow unsafe-shared-mutable — [spans] and [stats]
       are shared across forks and guarded by [mu]; every access below
       locks it. *)
    spans : (string * float * float * int * int) list ref;
    stats : (string, float) Hashtbl.t;
    mu : Mutex.t;
  }

  let req_ids = Atomic.make 1

  let make ?(conn = -1) ?(session = "") ?(op = "") ?(collect = false) () =
    {
      req = Atomic.fetch_and_add req_ids 1;
      conn;
      session;
      op;
      parent = current_span_id ();
      queue = 0.;
      collect;
      spans = ref [];
      stats = Hashtbl.create 8;
      mu = Mutex.create ();
    }

  let fork c = { c with parent = current_span_id () }

  let reset_ids () =
    Atomic.set req_ids 1;
    Atomic.set span_ids 1

  let key : t option ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref None)
  let current () = !(Domain.DLS.get key)

  let with_ctx c f =
    let cell = Domain.DLS.get key in
    let saved = !cell in
    cell := Some c;
    Fun.protect ~finally:(fun () -> cell := saved) f

  let req c = c.req
  let conn c = c.conn
  let session c = c.session
  let op c = c.op
  let parent c = c.parent
  let queue c = c.queue
  let set_session c s = c.session <- s
  let set_op c s = c.op <- s
  let set_queue c q = c.queue <- q
  let collecting c = c.collect
  let set_collect c b = c.collect <- b

  let add_stat c name v =
    Mutex.lock c.mu;
    let prev = match Hashtbl.find_opt c.stats name with Some x -> x | None -> 0. in
    Hashtbl.replace c.stats name (prev +. v);
    Mutex.unlock c.mu

  (* Accumulate into the ambient context if one is installed; layers
     below the serve boundary (Session, Store) report through this so
     their APIs stay context-free. *)
  let add_ambient name v =
    match current () with Some c -> add_stat c name v | None -> ()

  let stats c =
    Mutex.lock c.mu;
    let entries = Hashtbl.fold (fun k v acc -> (k, v) :: acc) c.stats [] in
    Mutex.unlock c.mu;
    List.sort (fun (a, _) (b, _) -> String.compare a b) entries

  (* Called from Trace.span when [collect] is set. *)
  let note_span c name ts dur id parent =
    Mutex.lock c.mu;
    c.spans := (name, ts, dur, id, parent) :: !(c.spans);
    Mutex.unlock c.mu

  let spans c =
    Mutex.lock c.mu;
    let s = !(c.spans) in
    Mutex.unlock c.mu;
    List.rev s
end

module Log = struct
  type level = Debug | Info | Warn | Error
  type value = Str of string | Int of int | Float of float | Bool of bool

  let severity = function Debug -> 0 | Info -> 1 | Warn -> 2 | Error -> 3

  let level_name = function
    | Debug -> "debug"
    | Info -> "info"
    | Warn -> "warn"
    | Error -> "error"

  let level_of_string s =
    match String.lowercase_ascii (String.trim s) with
    | "debug" -> Some Debug
    | "info" -> Some Info
    | "warn" | "warning" -> Some Warn
    | "error" -> Some Error
    | _ -> None

  (* Fast-path gates, read before anything else (including the clock:
     a disabled log must not consume fake-clock ticks). *)
  let active = Atomic.make false
  let min_severity = Atomic.make (severity Info)

  let set_level l = Atomic.set min_severity (severity l)

  (* nettomo-lint: allow unsafe-shared-mutable — guarded by [mu];
     every access below locks it. *)
  let chan : out_channel option ref = ref None

  (* nettomo-lint: allow unsafe-shared-mutable — guarded by [mu];
     every access below locks it. *)
  let buf : Buffer.t option ref = ref None

  (* nettomo-lint: allow unsafe-shared-mutable — guarded by [mu];
     every access below locks it. *)
  let windows : (string, float * int * int) Hashtbl.t = Hashtbl.create 32

  (* nettomo-lint: allow unsafe-shared-mutable — guarded by [mu];
     every access below locks it. *)
  let max_per_window = ref 200

  let mu = Mutex.create ()
  let window_s = 1.0

  let set_rate_limit n =
    Mutex.lock mu;
    max_per_window := max 1 n;
    Mutex.unlock mu

  (* Call under [mu]. *)
  let refresh_active () = Atomic.set active (!chan <> None || !buf <> None)

  let close_chan () =
    match !chan with
    | Some c ->
        close_out_noerr c;
        chan := None
    | None -> ()

  let to_file path =
    Mutex.lock mu;
    close_chan ();
    chan := Some (open_out path);
    Hashtbl.reset windows;
    refresh_active ();
    Mutex.unlock mu

  let to_buffer b =
    Mutex.lock mu;
    buf := Some b;
    Hashtbl.reset windows;
    refresh_active ();
    Mutex.unlock mu

  let disable () =
    Mutex.lock mu;
    close_chan ();
    buf := None;
    Hashtbl.reset windows;
    refresh_active ();
    Mutex.unlock mu

  (* Fixed field order — ts, level, event, req, conn, then the caller's
     fields in the order given — so a fake-clock run serializes
     byte-identically. *)
  let render ts lvl name ctx fields =
    let b = Buffer.create 128 in
    Buffer.add_string b
      (Printf.sprintf "{\"ts\":%.6f,\"level\":\"%s\",\"event\":\"%s\"" ts
         (level_name lvl) (json_escape name));
    (match (ctx : Ctx.t option) with
    | Some c ->
        Buffer.add_string b (Printf.sprintf ",\"req\":%d" (Ctx.req c));
        if Ctx.conn c >= 0 then
          Buffer.add_string b (Printf.sprintf ",\"conn\":%d" (Ctx.conn c))
    | None -> ());
    List.iter
      (fun (k, v) ->
        Buffer.add_string b (Printf.sprintf ",\"%s\":" (json_escape k));
        Buffer.add_string b
          (match v with
          | Str s -> "\"" ^ json_escape s ^ "\""
          | Int i -> string_of_int i
          | Float f -> Metrics.float_str f
          | Bool true -> "true"
          | Bool false -> "false"))
      fields;
    Buffer.add_char b '}';
    Buffer.contents b

  (* Call under [mu]. *)
  let write_line line =
    (match !chan with
    | Some c ->
        output_string c line;
        output_char c '\n';
        flush c
    | None -> ());
    match !buf with
    | Some b ->
        Buffer.add_string b line;
        Buffer.add_char b '\n'
    | None -> ()

  let event ?ctx lvl name fields =
    if Atomic.get active && severity lvl >= Atomic.get min_severity then begin
      let ctx = match ctx with Some _ -> ctx | None -> Ctx.current () in
      let ts = Clock.now () in
      Mutex.lock mu;
      Fun.protect
        ~finally:(fun () -> Mutex.unlock mu)
        (fun () ->
          if !chan <> None || !buf <> None then begin
            let start, n, dropped =
              match Hashtbl.find_opt windows name with
              | Some w -> w
              | None -> (ts, 0, 0)
            in
            (* Window accounting uses the event's own timestamp, never
               an extra clock read — rate limiting must not perturb the
               fake-clock tick sequence. *)
            let start, n, dropped =
              if ts -. start >= window_s then begin
                if dropped > 0 then
                  write_line
                    (render ts Warn "log.suppressed" None
                       [ ("of", Str name); ("dropped", Int dropped) ]);
                (ts, 0, 0)
              end
              else (start, n, dropped)
            in
            if n >= !max_per_window then
              Hashtbl.replace windows name (start, n, dropped + 1)
            else begin
              Hashtbl.replace windows name (start, n + 1, dropped);
              write_line (render ts lvl name ctx fields)
            end
          end)
    end

  let debug ?ctx name fields = event ?ctx Debug name fields
  let info ?ctx name fields = event ?ctx Info name fields
  let warn ?ctx name fields = event ?ctx Warn name fields
  let error ?ctx name fields = event ?ctx Error name fields
end

module Slow = struct
  type entry = {
    req : int;
    conn : int;
    op : string;
    session : string;
    wall_s : float;
    queue_s : float;
    stats : (string * float) list; (* sorted by name *)
    spans : (string * float * float * int * int) list;
        (* (name, start_s, dur_s, id, parent) in close order *)
  }

  (* nettomo-lint: allow unsafe-shared-mutable — guarded by [mu];
     every access below locks it. *)
  let items : entry list ref = ref [] (* newest first *)

  (* nettomo-lint: allow unsafe-shared-mutable — guarded by [mu];
     every access below locks it. *)
  let cap = ref 64

  let mu = Mutex.create ()

  let rec take n = function
    | [] -> []
    | _ when n <= 0 -> []
    | x :: tl -> x :: take (n - 1) tl

  let set_capacity n =
    Mutex.lock mu;
    cap := max 1 n;
    items := take !cap !items;
    Mutex.unlock mu

  let capacity () =
    Mutex.lock mu;
    let c = !cap in
    Mutex.unlock mu;
    c

  let note e =
    Mutex.lock mu;
    items := e :: take (!cap - 1) !items;
    Mutex.unlock mu

  let recent ?limit () =
    Mutex.lock mu;
    let out = match limit with Some n -> take n !items | None -> !items in
    Mutex.unlock mu;
    out

  let length () =
    Mutex.lock mu;
    let n = List.length !items in
    Mutex.unlock mu;
    n

  let clear () =
    Mutex.lock mu;
    items := [];
    Mutex.unlock mu

  let of_ctx c ~wall_s =
    {
      req = Ctx.req c;
      conn = Ctx.conn c;
      op = Ctx.op c;
      session = Ctx.session c;
      wall_s;
      queue_s = Ctx.queue c;
      stats = Ctx.stats c;
      spans = Ctx.spans c;
    }
end

module Trace = struct
  type event = {
    ev_name : string;
    ev_attrs : (string * string) list;
    ev_ts : float; (* seconds *)
    ev_dur : float; (* seconds, >= 0 *)
    ev_tid : int;
    ev_id : int; (* process-unique span id *)
    ev_parent : int; (* parent span id, -1 at a root *)
    ev_req : int; (* originating request id, -1 outside a request *)
    ev_conn : int; (* originating connection id, -1 outside serve *)
  }

  let on = Atomic.make false
  let enable () = Atomic.set on true
  let disable () = Atomic.set on false
  let enabled () = Atomic.get on

  let ring_capacity = 65536

  (* nettomo-lint: allow unsafe-shared-mutable — slots are claimed by
     the [ring_next] fetch-and-add below; each slot has exactly one
     writer per lap, and readers tolerate torn laps by design. *)
  let ring : event option array = Array.make ring_capacity None
  let ring_next = Atomic.make 0

  (* Name-keyed aggregates survive ring wrap (Monte-Carlo loops emit
     millions of spans). *)
  (* nettomo-lint: allow unsafe-shared-mutable — guarded by [agg_mu];
     every access below locks it. *)
  let agg : (string, int * float) Hashtbl.t = Hashtbl.create 64
  let agg_mu = Mutex.create ()

  let record ev =
    let slot = Atomic.fetch_and_add ring_next 1 mod ring_capacity in
    ring.(slot) <- Some ev;
    Mutex.lock agg_mu;
    let count, total =
      match Hashtbl.find_opt agg ev.ev_name with
      | Some ct -> ct
      | None -> (0, 0.)
    in
    Hashtbl.replace agg ev.ev_name (count + 1, total +. ev.ev_dur);
    Mutex.unlock agg_mu

  let span ?(attrs = []) name f =
    let ctx = Ctx.current () in
    let collect = match ctx with Some c -> Ctx.collecting c | None -> false in
    if not (Atomic.get on || collect) then f ()
    else begin
      let stack = Domain.DLS.get span_stack in
      let parent =
        match !stack with
        | id :: _ -> id
        | [] -> ( match ctx with Some c -> Ctx.parent c | None -> -1)
      in
      let id = next_span_id () in
      stack := id :: !stack;
      let t0 = Clock.now () in
      Fun.protect
        ~finally:(fun () ->
          let t1 = Clock.now () in
          (match !stack with _ :: tl -> stack := tl | [] -> ());
          let dur = Float.max 0. (t1 -. t0) in
          let req, conn =
            match ctx with
            | Some c -> (Ctx.req c, Ctx.conn c)
            | None -> (-1, -1)
          in
          if Atomic.get on then
            record
              {
                ev_name = name;
                ev_attrs = attrs;
                ev_ts = t0;
                ev_dur = dur;
                ev_tid = (Domain.self () :> int);
                ev_id = id;
                ev_parent = parent;
                ev_req = req;
                ev_conn = conn;
              };
          match ctx with
          | Some c when Ctx.collecting c -> Ctx.note_span c name t0 dur id parent
          | _ -> ())
        f
    end

  let raw_events () =
    let total = Atomic.get ring_next in
    let n = min total ring_capacity in
    let first = if total <= ring_capacity then 0 else total mod ring_capacity in
    List.filter_map
      (fun i -> ring.((first + i) mod ring_capacity))
      (List.init n (fun i -> i))

  let events () =
    List.map (fun e -> (e.ev_name, e.ev_ts, e.ev_dur, e.ev_tid)) (raw_events ())

  let records () =
    List.map
      (fun e -> (e.ev_name, e.ev_id, e.ev_parent, e.ev_req, e.ev_conn))
      (raw_events ())

  let summary () =
    Mutex.lock agg_mu;
    let entries = Hashtbl.fold (fun k v acc -> (k, v) :: acc) agg [] in
    Mutex.unlock agg_mu;
    List.sort (fun (a, _) (b, _) -> String.compare a b) entries

  let to_chrome_json () =
    let evs = raw_events () in
    let t_min =
      List.fold_left (fun acc e -> Float.min acc e.ev_ts) Float.infinity evs
    in
    let t_min = if Float.is_finite t_min then t_min else 0. in
    let b = Buffer.create 4096 in
    Buffer.add_string b "{\"traceEvents\":[";
    List.iteri
      (fun i e ->
        if i > 0 then Buffer.add_char b ',';
        (* The chrome "tid" is the logical track: the connection id
           when the span belongs to a serve connection, else the
           physical domain id.  Physical ids are scheduling-dependent
           (jobs=1 runs in the caller, jobs=4 on whichever worker
           wins), so keying tracks by connection is what makes the
           export byte-stable across --jobs. *)
        let tid = if e.ev_conn >= 0 then e.ev_conn else e.ev_tid in
        Buffer.add_string b
          (Printf.sprintf
             "{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%d"
             (json_escape e.ev_name)
             ((e.ev_ts -. t_min) *. 1e6)
             (e.ev_dur *. 1e6) tid);
        let attrs =
          e.ev_attrs
          @ [ ("span", string_of_int e.ev_id) ]
          @ (if e.ev_parent >= 0 then
               [ ("parent", string_of_int e.ev_parent) ]
             else [])
          @ (if e.ev_req >= 0 then [ ("req", string_of_int e.ev_req) ] else [])
          @
          if e.ev_conn >= 0 then [ ("conn", string_of_int e.ev_conn) ] else []
        in
        Buffer.add_string b ",\"args\":{";
        List.iteri
          (fun j (k, v) ->
            if j > 0 then Buffer.add_char b ',';
            Buffer.add_string b
              (Printf.sprintf "\"%s\":\"%s\"" (json_escape k) (json_escape v)))
          attrs;
        Buffer.add_string b "}}")
      evs;
    Buffer.add_string b "]}\n";
    Buffer.contents b

  let clear () =
    Atomic.set ring_next 0;
    Array.fill ring 0 ring_capacity None;
    Atomic.set span_ids 1;
    Mutex.lock agg_mu;
    Hashtbl.reset agg;
    Mutex.unlock agg_mu
end
