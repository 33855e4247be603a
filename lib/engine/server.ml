(* Concurrent multi-client serve front door.

   One dispatcher domain (the caller of [run]) multiplexes every
   connection with [Unix.select]; request execution is handed to the
   shared worker pool via [Pool.submit]. The dispatcher owns all
   connection state — workers only ever see (a) the per-connection
   [Protocol.t] of the request they are running and (b) the
   mutex-protected completion queue — so the design needs exactly one
   lock and one self-pipe:

     select ──▶ read bytes ──▶ Framing ──▶ pending lines
        ▲                                        │ (≤ 1 in flight
        │                                        ▼  per connection)
     self-pipe ◀── completion queue ◀── Pool.submit(handle_line)

   Determinism is load-bearing: because at most one request per
   connection is in flight and pending/output queues are FIFO, each
   connection's response stream is byte-identical to replaying that
   connection's requests through a fresh [Protocol.t] serially — the
   concurrency test battery diffs exactly that.

   Admission control: a connection is shed at accept time (one
   [overloaded] error line, then close) when the connection count is
   at [max_conns] or the pool's queue-wait p95 — read from the same
   histogram the Pool maintains for observability — exceeds
   [shed_wait_p95]. The kernel accept backlog is the bounded accept
   queue in front of that.

   Graceful shutdown ([shutdown], or a signal handler calling it):
   stop accepting and reading, finish in-flight and pending requests,
   flush output, close. The drain is bounded by iteration count with a
   short real select timeout, never by clock arithmetic — the fake
   Obs clock advances on every read, so clock-based deadlines would
   misfire under NETTOMO_CHECK test runs. *)

module Pool = Nettomo_util.Pool
module Store = Nettomo_store.Store
module Jsonx = Nettomo_util.Jsonx
module Obs = Nettomo_obs.Obs

type listen = Unix_socket of string | Tcp of int

type conn = {
  cid : int;
  fd : Unix.file_descr;
  proto : Protocol.t;
  fr : Framing.t;
  pending : string Queue.t;  (* complete request lines, FIFO *)
  outq : string Queue.t;  (* response lines (newline included), FIFO *)
  mutable out_head : string;  (* partially-written line, "" when none *)
  mutable out_off : int;
  mutable in_flight : bool;  (* one request running on the pool *)
  mutable cur : (Obs.Ctx.t * string * float) option;
      (* in-flight request: its context, op (dispatcher's peek) and
         enqueue time — what the status endpoint reports per conn *)
  mutable http : string option;
      (* a "GET <path>" line arrived; waiting for the blank line that
         ends the headers before answering and closing *)
  mutable eof : bool;  (* peer closed its write side *)
  mutable closing : bool;  (* flush outq, then close (overflow path) *)
  mutable dead : bool;  (* I/O error: close without flushing *)
}

type t = {
  listen : listen;
  pool : Pool.t;
  seed : int;
  emit_wall_ms : bool;
  store : Store.t option;
  max_conns : int;
  max_line_bytes : int;
  shed_wait_p95 : float option;
  slow_ms : float option;
  started : float;  (* Obs clock at create; status reports uptime from it *)
  listener : Unix.file_descr;
  actual_port : int option;  (* TCP only, after bind (port 0 resolves) *)
  pipe_r : Unix.file_descr;  (* self-pipe: workers wake the dispatcher *)
  pipe_w : Unix.file_descr;
  stop : bool Atomic.t;
  completed : (int * string) Queue.t;  (* cid, response line *)
  completed_lock : Mutex.t;
  mutable conns : conn list;  (* dispatcher-only; a list keeps
                                 iteration order deterministic *)
  mutable next_cid : int;
  rbuf : Bytes.t;  (* dispatcher-only read scratch *)
  m_conns : Obs.Metrics.gauge;
  m_conns_total : Obs.Metrics.counter;
  m_shed : Obs.Metrics.counter;
  m_requests : Obs.Metrics.counter;
  m_latency : Obs.Metrics.histogram;
}

let default_max_line_bytes = 1 lsl 20

(* The kernel accept queue of the listening socket. *)
let backlog = 64

let close_fd fd = try Unix.close fd with Unix.Unix_error (_, _, _) -> ()

let create ?(seed = 7) ?(emit_wall_ms = true) ?store ?(max_conns = 64)
    ?(max_line_bytes = default_max_line_bytes) ?shed_wait_p95 ?slow_ms ~pool
    listen =
  let bound fd k =
    match k () with
    | v -> v
    | exception e ->
        close_fd fd;
        raise e
  in
  let listener, actual_port =
    match listen with
    | Unix_socket path ->
        (* A stale socket file from a crashed server blocks bind. *)
        (try Sys.remove path with Sys_error _ -> ());
        let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        bound fd (fun () ->
            Unix.bind fd (Unix.ADDR_UNIX path);
            Unix.listen fd backlog);
        (fd, None)
    | Tcp port ->
        let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
        let actual =
          bound fd (fun () ->
              Unix.setsockopt fd Unix.SO_REUSEADDR true;
              Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
              Unix.listen fd backlog;
              match Unix.getsockname fd with
              | Unix.ADDR_INET (_, p) -> p
              | Unix.ADDR_UNIX _ -> port)
        in
        (fd, Some actual)
  in
  Unix.set_nonblock listener;
  let pipe_r, pipe_w = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock pipe_r;
  Unix.set_nonblock pipe_w;
  {
    listen;
    pool;
    seed;
    emit_wall_ms;
    store;
    max_conns;
    max_line_bytes;
    shed_wait_p95;
    slow_ms;
    started = Obs.Clock.now ();
    listener;
    actual_port;
    pipe_r;
    pipe_w;
    stop = Atomic.make false;
    completed = Queue.create ();
    completed_lock = Mutex.create ();
    conns = [];
    next_cid = 0;
    rbuf = Bytes.create 65536;
    m_conns = Obs.Metrics.gauge "serve_connections";
    m_conns_total = Obs.Metrics.counter "serve_connections_total";
    m_shed = Obs.Metrics.counter "serve_shed_total";
    m_requests = Obs.Metrics.counter "serve_requests_total";
    m_latency = Obs.Metrics.histogram "serve_request_seconds";
  }

let port t = t.actual_port
let request_latency t = t.m_latency
let connections_gauge t = t.m_conns
let shed_total t = t.m_shed
let requests_total t = t.m_requests

(* Wake the dispatcher out of select. A full pipe (EAGAIN) means a
   wakeup is already pending; EBADF/EPIPE mean the server is gone —
   all three are exactly "no further wakeup needed". *)
let wake t =
  match Unix.write t.pipe_w (Bytes.make 1 'w') 0 1 with
  | _ -> ()
  | exception
      Unix.Unix_error
        ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EPIPE | Unix.EBADF), _, _) ->
      ()

let shutdown t =
  Atomic.set t.stop true;
  wake t

(* ---------- output ---------- *)

let has_output c = String.length c.out_head > 0 || not (Queue.is_empty c.outq)

(* Opportunistic nonblocking flush; whatever does not fit stays queued
   and select's write interest picks it up. A peer that vanished turns
   the connection dead — its session is freed at the next reap. *)
let try_flush c =
  let rec go () =
    if String.length c.out_head = 0 then
      match Queue.take_opt c.outq with
      | None -> ()
      | Some s ->
          c.out_head <- s;
          c.out_off <- 0;
          go ()
    else
      let len = String.length c.out_head - c.out_off in
      match Unix.write_substring c.fd c.out_head c.out_off len with
      | n ->
          c.out_off <- c.out_off + n;
          if c.out_off >= String.length c.out_head then begin
            c.out_head <- "";
            c.out_off <- 0
          end;
          go ()
      | exception
          Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
        ->
          ()
      | exception Unix.Unix_error (_, _, _) -> c.dead <- true
  in
  if not c.dead then go ()

let enqueue_out c line =
  Queue.push (line ^ "\n") c.outq;
  try_flush c

(* ---------- accept & admission ---------- *)

let should_shed t =
  List.length t.conns >= t.max_conns
  ||
  match t.shed_wait_p95 with
  | None -> false
  | Some threshold ->
      (* Until the pool has completed at least one request the
         queue-wait histogram is empty and its quantiles are a
         conventional 0 — never shed on that placeholder (a negative
         threshold would otherwise reject every first client). *)
      let qw = Pool.queue_wait t.pool in
      Obs.Metrics.histogram_count qw > 0
      && Obs.Metrics.histogram_quantile qw 0.95 > threshold

let shed t fd =
  Obs.Metrics.incr t.m_shed;
  Obs.Log.warn "serve.shed" [ ("conns", Int (List.length t.conns)) ];
  let line =
    Protocol.error_response Protocol.Overloaded
      "server overloaded; retry later"
    ^ "\n"
  in
  (* Best-effort: the client may already be gone, and a fresh socket
     buffer that cannot take one line is itself a reason to give up. *)
  (match Unix.write_substring fd line 0 (String.length line) with
  | _ -> ()
  | exception Unix.Unix_error (_, _, _) -> ());
  close_fd fd

let add_conn t fd =
  Unix.set_nonblock fd;
  let cid = t.next_cid in
  t.next_cid <- cid + 1;
  let proto =
    Protocol.create ~pool:t.pool ~seed:t.seed ~emit_wall_ms:t.emit_wall_ms
      ?store:t.store ?slow_ms:t.slow_ms ()
  in
  let c =
    {
      cid;
      fd;
      proto;
      fr = Framing.create ~max_line_bytes:t.max_line_bytes ();
      pending = Queue.create ();
      outq = Queue.create ();
      out_head = "";
      out_off = 0;
      in_flight = false;
      cur = None;
      http = None;
      eof = false;
      closing = false;
      dead = false;
    }
  in
  t.conns <- t.conns @ [ c ];
  Obs.Metrics.incr t.m_conns_total;
  Obs.Metrics.set_gauge t.m_conns (float_of_int (List.length t.conns));
  Obs.Log.info "serve.accept" [ ("conn", Int cid) ]

let accept_ready t =
  let rec go () =
    match Unix.accept ~cloexec:true t.listener with
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error ((Unix.ECONNABORTED | Unix.EINTR), _, _) ->
        go ()
    | fd, _ ->
        if should_shed t then shed t fd else add_conn t fd;
        go ()
  in
  go ()

(* ---------- reads ---------- *)

let read_conn t c =
  match Unix.read c.fd t.rbuf 0 (Bytes.length t.rbuf) with
  | 0 -> (
      c.eof <- true;
      (* The framing EOF rule: a final line without '\n' is a request. *)
      match Framing.close c.fr with
      | Some line -> Queue.push line c.pending
      | None -> ())
  | n ->
      List.iter
        (fun l -> Queue.push l c.pending)
        (Framing.feed c.fr (Bytes.sub_string t.rbuf 0 n));
      if Framing.overflowed c.fr && not c.closing then begin
        (* One bad_request, then close: pipelined requests behind the
           oversized line are torn down with the connection. *)
        Queue.clear c.pending;
        c.closing <- true;
        enqueue_out c
          (Protocol.error_response Protocol.Bad_request
             (Printf.sprintf "request line exceeds %d bytes" t.max_line_bytes))
      end
  | exception
      Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
      ()
  | exception Unix.Unix_error (_, _, _) -> c.dead <- true

(* ---------- dispatcher-answered endpoints ---------- *)

(* The status snapshot and the Prometheus scrape are assembled and
   written entirely on the dispatcher — no Pool.submit, no in_flight
   slot — so they answer even when every worker is wedged and every
   slot is taken. That liveness property is the whole point: the
   concurrency test battery saturates the pool on purpose and then
   scrapes. *)

let status_fields t =
  let now = Obs.Clock.now () in
  let conns =
    List.map
      (fun c ->
        let in_flight =
          match c.cur with
          | None -> []
          | Some (ctx, op, enq) ->
              [
                ("req", Jsonx.Int (Obs.Ctx.req ctx));
                ("op", Jsonx.String op);
                ("age_ms", Jsonx.Float (Float.max 0. ((now -. enq) *. 1e3)));
              ]
        in
        Jsonx.Obj
          (( "conn", Jsonx.Int c.cid )
          :: ("in_flight", Jsonx.Bool c.in_flight)
          :: in_flight))
      t.conns
  in
  let store_bytes, store_entries =
    match t.store with None -> (0, 0) | Some s -> Store.occupancy s
  in
  [
    ("uptime_s", Jsonx.Float (Float.max 0. (now -. t.started)));
    ("connections", Jsonx.Int (List.length t.conns));
    ("requests_total", Jsonx.Int (Obs.Metrics.counter_value t.m_requests));
    ("shed_total", Jsonx.Int (Obs.Metrics.counter_value t.m_shed));
    ("pool_jobs", Jsonx.Int (Pool.jobs t.pool));
    ("pool_running", Jsonx.Int (Pool.running t.pool));
    ("slow_captured", Jsonx.Int (Obs.Slow.length ()));
    ("store_bytes", Jsonx.Int store_bytes);
    ("store_entries", Jsonx.Int store_entries);
    ("conns", Jsonx.List conns);
  ]

let is_http_get line =
  String.length line >= 4 && String.sub line 0 4 = "GET "

let http_path line =
  match String.split_on_char ' ' (String.trim line) with
  | _ :: path :: _ -> path
  | _ -> "/"

let http_response ~status ~content_type body =
  Printf.sprintf
    "HTTP/1.0 %s\r\nContent-Type: %s\r\nContent-Length: %d\r\nConnection: \
     close\r\n\r\n%s"
    status content_type (String.length body) body

(* Raw write path for HTTP responses: [enqueue_out] appends the
   JSON-lines '\n'; HTTP bodies carry their own Content-Length. *)
let enqueue_out_raw c s =
  Queue.push s c.outq;
  try_flush c

let respond_http t c path =
  let resp =
    match path with
    | "/metrics" ->
        http_response ~status:"200 OK"
          ~content_type:"text/plain; version=0.0.4; charset=utf-8"
          (Obs.Metrics.dump ())
    | "/status" ->
        http_response ~status:"200 OK" ~content_type:"application/json"
          (Jsonx.to_string (Jsonx.Obj (status_fields t)) ^ "\n")
    | _ ->
        http_response ~status:"404 Not Found" ~content_type:"text/plain"
          "only /metrics and /status are served\n"
  in
  Obs.Log.info "serve.scrape"
    [ ("conn", Int c.cid); ("path", Str path) ];
  Queue.clear c.pending;
  c.closing <- true;
  enqueue_out_raw c resp

(* ---------- request dispatch & completion ---------- *)

let submit_request t c line =
  let op = match Protocol.peek_op line with Some op -> op | None -> "" in
  let ctx = Obs.Ctx.make ~conn:c.cid ~op () in
  let enq = Obs.Clock.now () in
  c.cur <- Some (ctx, op, enq);
  let cid = c.cid and proto = c.proto in
  let slow_armed = Option.is_some t.slow_ms in
  Pool.submit ~ctx t.pool (fun () ->
      if slow_armed then
        Obs.Ctx.set_queue ctx (Float.max 0. (Obs.Clock.now () -. enq));
      let t0 = Obs.Clock.now () in
      Fun.protect
        ~finally:(fun () ->
          Obs.Metrics.observe t.m_latency
            (Float.max 0. (Obs.Clock.now () -. t0)))
        (fun () ->
          let resp =
            match Protocol.handle_line ~ctx proto line with
            | resp -> resp
            | exception e ->
                (* handle_line never raises on bad input; what does get
                   here is an engine bug (NETTOMO_CHECK invariant
                   violations included). Surface it to the client
                   rather than silently killing the worker domain. *)
                Protocol.error_response Protocol.Query_failed
                  ("internal error: " ^ Printexc.to_string e)
          in
          Mutex.lock t.completed_lock;
          Queue.push (cid, resp) t.completed;
          Mutex.unlock t.completed_lock;
          wake t))

let dispatch_ready t =
  List.iter
    (fun c ->
      if (not c.in_flight) && not c.dead then begin
        let rec next () =
          match Queue.take_opt c.pending with
          | None -> ()
          | Some line -> (
              match c.http with
              | Some path ->
                  (* Header lines of a pending HTTP request: discard
                     until the blank line that ends them, then answer
                     and close. *)
                  if String.trim line = "" then respond_http t c path;
                  if not c.closing then next ()
              | None ->
                  if String.trim line = "" then next ()
                  else if is_http_get line then begin
                    c.http <- Some (http_path line);
                    next ()
                  end
                  else if
                    Option.equal String.equal (Protocol.peek_op line)
                      (Some "status")
                  then begin
                    (* Answered inline: no in_flight slot is consumed,
                       so per-connection FIFO order is preserved (the
                       line was only popped because nothing is in
                       flight) and fresh connections get a status line
                       even under full pool saturation. *)
                    enqueue_out c
                      (Protocol.ok_response ~id:(Protocol.request_id line)
                         (status_fields t));
                    next ()
                  end
                  else begin
                    c.in_flight <- true;
                    submit_request t c line
                  end)
        in
        next ()
      end)
    t.conns

let drain_completed t =
  let rec go () =
    Mutex.lock t.completed_lock;
    let item = Queue.take_opt t.completed in
    Mutex.unlock t.completed_lock;
    match item with
    | None -> ()
    | Some (cid, resp) ->
        (match List.find_opt (fun c -> c.cid = cid) t.conns with
        | Some c ->
            c.in_flight <- false;
            c.cur <- None;
            Obs.Metrics.incr t.m_requests;
            if not c.dead then enqueue_out c resp
        | None -> () (* connection dropped while its request ran *));
        go ()
  in
  go ()

let drain_pipe t =
  let rec go () =
    match Unix.read t.pipe_r t.rbuf 0 (Bytes.length t.rbuf) with
    | 0 -> ()
    | _ -> go ()
    | exception
        Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      ->
        ()
  in
  go ()

(* ---------- reaping ---------- *)

let finished c =
  c.dead
  || (c.eof || c.closing)
     && (not c.in_flight)
     && Queue.is_empty c.pending
     && not (has_output c)

let reap t =
  let gone, live = List.partition finished t.conns in
  match gone with
  | [] -> ()
  | _ ->
      List.iter
        (fun c ->
          close_fd c.fd;
          Obs.Log.info "serve.close" [ ("conn", Int c.cid) ])
        gone;
      t.conns <- live;
      Obs.Metrics.set_gauge t.m_conns (float_of_int (List.length live))

(* ---------- main loop ---------- *)

(* Returns [true] when the drain completed (no connection still busy),
   [false] when the iteration bound expired first — in which case a
   straggling worker may still hold a reference to the self-pipe, and
   the caller must not close it. *)
let rec loop t ~drain_left =
  reap t;
  let stopping = Atomic.get t.stop in
  let busy =
    List.exists
      (fun c -> c.in_flight || (not (Queue.is_empty c.pending)) || has_output c)
      t.conns
  in
  if stopping && ((not busy) || drain_left <= 0) then not busy
  else begin
    let rds = ref [ t.pipe_r ] in
    if not stopping then rds := t.listener :: !rds;
    let wrs = ref [] in
    List.iter
      (fun c ->
        (* During drain the server stops reading: in-flight and pending
           requests finish, new bytes stay in the kernel. *)
        if (not stopping) && not (c.eof || c.closing || c.dead) then
          rds := c.fd :: !rds;
        if has_output c && not c.dead then wrs := c.fd :: !wrs)
      t.conns;
    (* Real seconds, deliberately not Obs.Clock: the fake clock ticks
       on every read, so using it for timeouts would warp under test
       runs. Blocking select is the idle state; the short timeout while
       stopping is what bounds the drain together with [drain_left]. *)
    let timeout = if stopping then 0.05 else -1. in
    match Unix.select !rds !wrs [] timeout with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop t ~drain_left
    | rs, ws, _ ->
        if List.mem t.pipe_r rs then drain_pipe t;
        if (not stopping) && List.mem t.listener rs then accept_ready t;
        List.iter (fun c -> if List.mem c.fd rs then read_conn t c) t.conns;
        List.iter
          (fun c -> if (not c.dead) && List.mem c.fd ws then try_flush c)
          t.conns;
        drain_completed t;
        dispatch_ready t;
        loop t ~drain_left:(if stopping then drain_left - 1 else drain_left)
  end

let run t =
  (* A peer closing mid-write must surface as EPIPE (handled per
     connection), not kill the process. *)
  let prev_sigpipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  Fun.protect
    ~finally:(fun () -> Sys.set_signal Sys.sigpipe prev_sigpipe)
    (fun () ->
      Obs.Log.info "serve.listen"
        [
          ( "addr",
            Str
              (match t.listen with
              | Unix_socket path -> path
              | Tcp _ -> (
                  match t.actual_port with
                  | Some p -> Printf.sprintf "127.0.0.1:%d" p
                  | None -> "tcp")) );
        ];
      let clean = loop t ~drain_left:200 in
      Obs.Log.info "serve.drain" [ ("clean", Bool clean) ];
      List.iter (fun c -> close_fd c.fd) t.conns;
      t.conns <- [];
      Obs.Metrics.set_gauge t.m_conns 0.;
      close_fd t.listener;
      (match t.listen with
      | Unix_socket path -> ( try Sys.remove path with Sys_error _ -> ())
      | Tcp _ -> ());
      if clean then begin
        (* Only when no worker can still wake us: closing the pipe under
           a straggler would let its write land on a recycled fd. *)
        close_fd t.pipe_r;
        close_fd t.pipe_w
      end)
