(* Concurrency battery for the socket serve front door.

   The core claim under test is the server's determinism contract:
   with wall-time emission off, every connection's response stream is
   byte-identical to replaying that connection's requests serially
   through a fresh single-client Protocol.t. Around that sit isolation
   (no state leaks across connections), the shared store as a
   cross-session cache tier, fault injection (mid-request disconnect,
   half-written line, oversized request, slowloris), admission control
   (max-conns and queue-wait shedding), and a NETTOMO_CHECK soak whose
   metrics counters must be identical across two concurrent runs and
   equal to the serial sum.

   Clients are POSIX threads (blocking sockets, simple code); the
   server runs in its own domain; the shared pool brings its own
   worker domains. *)

module Server = Nettomo_engine.Server
module Protocol = Nettomo_engine.Protocol
module Pool = Nettomo_util.Pool
module Jsonx = Nettomo_util.Jsonx
module Invariant = Nettomo_util.Invariant
module Store = Nettomo_store.Store
module Obs = Nettomo_obs.Obs

let check = Alcotest.check
let ci = Alcotest.int
let cs = Alcotest.string

(* ---------- request construction ---------- *)

let req fields = Jsonx.to_string (Jsonx.Obj fields)

let ring_edges n =
  String.concat "\n"
    (List.init n (fun i -> Printf.sprintf "%d %d" i ((i + 1) mod n)))

let load_req ~id ~n =
  req
    [
      ("id", Jsonx.Int id);
      ("op", Jsonx.String "load");
      ("edges", Jsonx.String (ring_edges n));
      ("monitors", Jsonx.List [ Jsonx.Int 0; Jsonx.Int 2 ]);
    ]

let op_req ~id op = req [ ("id", Jsonx.Int id); ("op", Jsonx.String op) ]

let delta_link ~id action u v =
  req
    [
      ("id", Jsonx.Int id);
      ("op", Jsonx.String "delta");
      ("action", Jsonx.String action);
      ("u", Jsonx.Int u);
      ("v", Jsonx.Int v);
    ]

(* Client [k] works a ring of 5 + k nodes: distinct topology, hence
   distinct fingerprint, hence any cross-connection state leak turns
   into a visible transcript diff. *)
let workload k =
  let n = 5 + k in
  [
    load_req ~id:1 ~n;
    op_req ~id:2 "identifiable";
    delta_link ~id:3 "add_link" 1 3;
    op_req ~id:4 "identifiable";
    op_req ~id:5 "mmp";
    delta_link ~id:6 "remove_link" 1 3;
    op_req ~id:7 "plan";
    op_req ~id:8 "stats";
  ]

(* ---------- socket plumbing ---------- *)

let connect path =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  fd

let close_fd fd = try Unix.close fd with Unix.Unix_error (_, _, _) -> ()

let send_all fd s =
  let n = String.length s in
  let rec go off =
    if off < n then go (off + Unix.write_substring fd s off (n - off))
  in
  go 0

let recv_all fd =
  let buf = Bytes.create 65536 in
  let b = Buffer.create 4096 in
  let rec go () =
    let n = Unix.read fd buf 0 (Bytes.length buf) in
    if n > 0 then begin
      Buffer.add_subbytes b buf 0 n;
      go ()
    end
  in
  go ();
  Buffer.contents b

let recv_line fd =
  let b = Buffer.create 256 in
  let one = Bytes.create 1 in
  let rec go () =
    if Unix.read fd one 0 1 = 0 then Buffer.contents b
    else if Bytes.get one 0 = '\n' then Buffer.contents b
    else begin
      Buffer.add_char b (Bytes.get one 0);
      go ()
    end
  in
  go ()

(* Pipelined client: send everything, half-close, read the full
   transcript. The server never blocks on a writer, so this cannot
   deadlock regardless of workload size. *)
let run_client path requests =
  let fd = connect path in
  Fun.protect
    ~finally:(fun () -> close_fd fd)
    (fun () ->
      send_all fd (String.concat "\n" requests ^ "\n");
      Unix.shutdown fd Unix.SHUTDOWN_SEND;
      recv_all fd)

(* The determinism oracle: the same requests through a fresh
   single-client protocol, serially. *)
let replay requests =
  let p = Protocol.create ~emit_wall_ms:false () in
  String.concat ""
    (List.map (fun r -> Protocol.handle_line p r ^ "\n") requests)

(* ---------- harness ---------- *)

let sock_counter = ref 0

let fresh_sock_path () =
  incr sock_counter;
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "nettomo-test-%d-%d.sock" (Unix.getpid ()) !sock_counter)

let with_server ?max_conns ?max_line_bytes ?shed_wait_p95 ?slow_ms ?store
    ?(jobs = 4) f =
  Pool.with_pool ~jobs (fun pool ->
      let path = fresh_sock_path () in
      let server =
        Server.create ~emit_wall_ms:false ?max_conns ?max_line_bytes
          ?shed_wait_p95 ?slow_ms ?store ~pool (Server.Unix_socket path)
      in
      let d = Domain.spawn (fun () -> Server.run server) in
      Fun.protect
        ~finally:(fun () ->
          Server.shutdown server;
          Domain.join d)
        (fun () -> f ~path ~server ~pool))

let gauge g = int_of_float (Obs.Metrics.gauge_value g)

let wait_for ~what cond =
  let rec go n =
    if not (cond ()) then
      if n > 1000 then Alcotest.failf "timed out waiting for %s" what
      else begin
        Unix.sleepf 0.01;
        go (n + 1)
      end
  in
  go 0

let member_string name v =
  match Jsonx.member name v with
  | Some (Jsonx.String s) -> Some s
  | Some _ | None -> None

let parse_response raw =
  match Jsonx.parse raw with
  | Ok v -> v
  | Error m -> Alcotest.failf "response is not JSON (%s): %s" m raw

(* ---------- determinism & isolation ---------- *)

let test_concurrent_transcripts () =
  with_server (fun ~path ~server ~pool:_ ->
      let n_clients = 6 in
      let results = Array.make n_clients "" in
      let threads =
        List.init n_clients (fun k ->
            Thread.create
              (fun () -> results.(k) <- run_client path (workload k))
              ())
      in
      List.iter Thread.join threads;
      (* Byte-for-byte: each connection against its single-client
         replay. Any cross-connection contamination (shared memo,
         leaked session, reordered response) shows up here. *)
      Array.iteri
        (fun k transcript ->
          check cs
            (Printf.sprintf "client %d transcript equals replay" k)
            (replay (workload k)) transcript)
        results;
      (* Distinct fingerprints: the sessions really were distinct. *)
      let fingerprint transcript =
        let first = List.hd (String.split_on_char '\n' transcript) in
        match member_string "fingerprint" (parse_response first) with
        | Some fp -> fp
        | None -> Alcotest.fail "load response lacks a fingerprint"
      in
      let fps = Array.to_list (Array.map fingerprint results) in
      check ci "pairwise distinct fingerprints" n_clients
        (List.length (List.sort_uniq String.compare fps));
      wait_for ~what:"connections to drain" (fun () ->
          gauge (Server.connections_gauge server) = 0);
      check ci "every request served"
        (n_clients * List.length (workload 0))
        (Obs.Metrics.counter_value (Server.requests_total server)))

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter
      (fun name -> rm_rf (Filename.concat path name))
      (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

let test_shared_store_cross_session () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "nettomo-test-store-%d" (Unix.getpid ()))
  in
  Fun.protect
    ~finally:(fun () -> try rm_rf dir with Sys_error _ -> ())
    (fun () ->
      let store = Store.open_dir dir in
      (* The stats op would expose store counters (interleaving- and
         warmth-dependent), so this workload stays away from it. The
         mmp query publishes its report on a store miss. *)
      let reqs = [ load_req ~id:1 ~n:9; op_req ~id:2 "mmp" ] in
      with_server ~store (fun ~path ~server:_ ~pool:_ ->
          let a = run_client path reqs in
          let after_a = Store.stats store in
          let b = run_client path reqs in
          let after_b = Store.stats store in
          (* Same answers with or without the cache tier. *)
          check cs "client A equals storeless replay" (replay reqs) a;
          check cs "client B equals storeless replay" (replay reqs) b;
          (* A warmed the store; B hit it and published nothing new:
             the artifact is counted (and stored) exactly once. *)
          check Alcotest.bool "A published artifacts" true
            (after_a.Store.puts > 0);
          check ci "B published nothing new" after_a.Store.puts
            after_b.Store.puts;
          check Alcotest.bool "B hit A's artifacts" true
            (after_b.Store.hits > after_a.Store.hits)))

let test_shared_store_coverage () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "nettomo-test-cov-store-%d" (Unix.getpid ()))
  in
  Fun.protect
    ~finally:(fun () -> try rm_rf dir with Sys_error _ -> ())
    (fun () ->
      let store = Store.open_dir dir in
      (* Same shape as the mmp leg above, but over the cov and aug
         artifacts: the coverage report and the augmentation plan round
         through the store across sessions. *)
      let reqs =
        [
          load_req ~id:1 ~n:9;
          op_req ~id:2 "coverage";
          req
            [
              ("id", Jsonx.Int 3);
              ("op", Jsonx.String "augment");
              ("k", Jsonx.Int 2);
            ];
        ]
      in
      with_server ~store (fun ~path ~server:_ ~pool:_ ->
          let a = run_client path reqs in
          let after_a = Store.stats store in
          let b = run_client path reqs in
          let after_b = Store.stats store in
          check cs "client A equals storeless replay" (replay reqs) a;
          check cs "client B equals storeless replay" (replay reqs) b;
          check Alcotest.bool "A published coverage artifacts" true
            (after_a.Store.puts >= 2);
          check ci "B published nothing new" after_a.Store.puts
            after_b.Store.puts;
          check Alcotest.bool "B hit A's artifacts" true
            (after_b.Store.hits > after_a.Store.hits)))

(* ---------- fault injection ---------- *)

let test_disconnect_mid_request () =
  with_server ~jobs:2 (fun ~path ~server ~pool ->
      let fd = connect path in
      send_all fd {|{"id":1,"op":"met|};
      close_fd fd;
      (* The survivor is unaffected by the vanished half-request. *)
      let out = run_client path (workload 0) in
      check cs "survivor transcript equals replay" (replay (workload 0)) out;
      wait_for ~what:"connections to drain" (fun () ->
          gauge (Server.connections_gauge server) = 0);
      wait_for ~what:"pool to go idle" (fun () ->
          Pool.idle_slots pool = Pool.jobs pool))

let test_half_written_line_completes () =
  with_server (fun ~path ~server:_ ~pool:_ ->
      let reqs = [ load_req ~id:1 ~n:6; op_req ~id:2 "identifiable" ] in
      let payload = String.concat "\n" reqs ^ "\n" in
      let cut = String.length payload / 2 in
      let fd = connect path in
      Fun.protect
        ~finally:(fun () -> close_fd fd)
        (fun () ->
          (* First half ends mid-line; the rest arrives later. *)
          send_all fd (String.sub payload 0 cut);
          Unix.sleepf 0.2;
          send_all fd (String.sub payload cut (String.length payload - cut));
          Unix.shutdown fd Unix.SHUTDOWN_SEND;
          check cs "split writes reassemble to the same transcript"
            (replay reqs) (recv_all fd)))

let test_oversized_request () =
  with_server ~max_line_bytes:256 (fun ~path ~server ~pool:_ ->
      let fd = connect path in
      Fun.protect
        ~finally:(fun () -> close_fd fd)
        (fun () ->
          send_all fd (String.make 1000 'x' ^ "\n");
          (* One bad_request response, then the server closes. *)
          let out = recv_all fd in
          let lines =
            String.split_on_char '\n' out |> List.filter (fun l -> l <> "")
          in
          check ci "exactly one response" 1 (List.length lines);
          let v = parse_response (List.hd lines) in
          check cs "status" "error"
            (Option.value (member_string "status" v) ~default:"<missing>");
          check cs "code" "bad_request"
            (Option.value (member_string "code" v) ~default:"<missing>"));
      wait_for ~what:"connections to drain" (fun () ->
          gauge (Server.connections_gauge server) = 0);
      (* A well-behaved client still gets full service afterwards. *)
      let reqs = [ load_req ~id:1 ~n:5; op_req ~id:2 "identifiable" ] in
      check cs "later client served normally" (replay reqs)
        (run_client path reqs))

let test_slowloris_stalled_writer () =
  with_server (fun ~path ~server ~pool:_ ->
      let stalled = connect path in
      Fun.protect
        ~finally:(fun () -> close_fd stalled)
        (fun () ->
          send_all stalled {|{"id":1,"op|};
          (* While it stalls mid-line, other clients make progress. *)
          let out = run_client path (workload 2) in
          check cs "others progress past the stalled writer"
            (replay (workload 2)) out;
          wait_for ~what:"only the stalled connection to remain" (fun () ->
              gauge (Server.connections_gauge server) = 1));
      wait_for ~what:"stalled connection to be reaped" (fun () ->
          gauge (Server.connections_gauge server) = 0))

(* ---------- admission control ---------- *)

let test_shed_at_max_conns () =
  with_server ~max_conns:1 (fun ~path ~server ~pool:_ ->
      let a = connect path in
      Fun.protect
        ~finally:(fun () -> close_fd a)
        (fun () ->
          send_all a (op_req ~id:1 "stats" ^ "\n");
          (* A no_session error — proof that A is accepted and live. *)
          let first = recv_line a in
          check cs "first client is served" "no_session"
            (Option.value
               (member_string "code" (parse_response first))
               ~default:"<missing>");
          (* B is over the limit: one overloaded line, then EOF. *)
          let b = connect path in
          Fun.protect
            ~finally:(fun () -> close_fd b)
            (fun () ->
              let line = recv_line b in
              let v = parse_response line in
              check cs "shed status" "error"
                (Option.value (member_string "status" v) ~default:"<missing>");
              check cs "shed code" "overloaded"
                (Option.value (member_string "code" v) ~default:"<missing>");
              check cs "nothing after the shed line" "" (recv_all b));
          check ci "shed counted" 1
            (Obs.Metrics.counter_value (Server.shed_total server))))

let test_shed_on_queue_wait () =
  Obs.Clock.use_fake ();
  Fun.protect
    ~finally:(fun () -> Obs.Clock.use_real ())
    (fun () ->
      (* Threshold 0: shed as soon as the queue-wait histogram holds
         any observation — under the fake clock every recorded wait is
         strictly positive, so this is deterministic. *)
      with_server ~shed_wait_p95:0.0 (fun ~path ~server ~pool:_ ->
          let a = connect path in
          Fun.protect
            ~finally:(fun () -> close_fd a)
            (fun () ->
              (* Histogram still empty: A is admitted and served... *)
              send_all a (op_req ~id:1 "stats" ^ "\n");
              let first = recv_line a in
              check cs "first client admitted on an idle pool" "no_session"
                (Option.value
                   (member_string "code" (parse_response first))
                   ~default:"<missing>");
              (* ...and its request recorded a positive queue wait, so
                 the p95 is now over the threshold: B is shed. *)
              let b = connect path in
              Fun.protect
                ~finally:(fun () -> close_fd b)
                (fun () ->
                  check cs "second client shed on queue wait" "overloaded"
                    (Option.value
                       (member_string "code" (parse_response (recv_line b)))
                       ~default:"<missing>"));
              check ci "shed counted" 1
                (Obs.Metrics.counter_value (Server.shed_total server)))))

let member_int name v =
  match Jsonx.member name v with
  | Some (Jsonx.Int i) -> Some i
  | Some _ | None -> None

(* ---------- dispatcher-answered endpoints under saturation ---------- *)

(* The liveness property: status and the Prometheus scrape are
   assembled on the dispatcher, so they answer while every pool slot
   is deliberately wedged. *)
let test_status_and_scrape_under_saturation () =
  with_server ~jobs:4 (fun ~path ~server:_ ~pool ->
      let release = Atomic.make false in
      (* A [jobs] pool runs submitted tasks on jobs - 1 worker domains
         (slot 0 belongs to the caller), so jobs wedge tasks pin every
         worker AND leave a queued backlog: no submitted request can
         make progress until [release]. *)
      let wedged = Pool.jobs pool - 1 in
      Fun.protect
        ~finally:(fun () -> Atomic.set release true)
        (fun () ->
          for _ = 1 to Pool.jobs pool do
            Pool.submit pool (fun () ->
                while not (Atomic.get release) do
                  Unix.sleepf 0.002
                done)
          done;
          wait_for ~what:"pool saturation" (fun () ->
              Pool.running pool = wedged);
          (* A fresh connection's status request answers without a pool
             round-trip. *)
          let fd = connect path in
          Fun.protect
            ~finally:(fun () -> close_fd fd)
            (fun () ->
              send_all fd (op_req ~id:1 "status" ^ "\n");
              let v = parse_response (recv_line fd) in
              check cs "status ok under saturation" "ok"
                (Option.value (member_string "status" v) ~default:"<missing>");
              check ci "status reports the wedged slots" wedged
                (Option.value (member_int "pool_running" v) ~default:(-1));
              check Alcotest.bool "status reports pool size" true
                (member_int "pool_jobs" v = Some (Pool.jobs pool)));
          (* Same for a plain-HTTP scrape of the metrics registry. *)
          let http = connect path in
          Fun.protect
            ~finally:(fun () -> close_fd http)
            (fun () ->
              send_all http "GET /metrics HTTP/1.0\r\n\r\n";
              let resp = recv_all http in
              check Alcotest.bool "HTTP 200" true
                (String.starts_with ~prefix:"HTTP/1.0 200 OK" resp);
              List.iter
                (fun family ->
                  check Alcotest.bool (family ^ " present") true
                    (let rec scan i =
                       i + String.length family <= String.length resp
                       && (String.sub resp i (String.length family) = family
                          || scan (i + 1))
                     in
                     scan 0))
                [
                  "serve_connections"; "serve_requests_total";
                  "pool_slots_idle"; "pool_queue_wait_seconds";
                ]);
          (* And the JSON status over HTTP. *)
          let http2 = connect path in
          Fun.protect
            ~finally:(fun () -> close_fd http2)
            (fun () ->
              send_all http2 "GET /status HTTP/1.0\r\n\r\n";
              let resp = recv_all http2 in
              check Alcotest.bool "HTTP 200" true
                (String.starts_with ~prefix:"HTTP/1.0 200 OK" resp);
              match String.index_opt resp '{' with
              | None -> Alcotest.fail "no JSON body in /status response"
              | Some i ->
                  let body =
                    String.sub resp i (String.length resp - i)
                  in
                  let v = parse_response (String.trim body) in
                  check ci "body reports the wedged slots" wedged
                    (Option.value (member_int "pool_running" v) ~default:(-1))));
      wait_for ~what:"pool to go idle" (fun () ->
          Pool.idle_slots pool = Pool.jobs pool))

(* ---------- slow capture over the socket ---------- *)

let test_slow_capture_over_socket () =
  Obs.Clock.use_fake ();
  Obs.Slow.clear ();
  Fun.protect
    ~finally:(fun () ->
      Obs.Slow.clear ();
      Obs.Clock.use_real ())
    (fun () ->
      (* Threshold 0 and a tick clock: every request is slow. *)
      with_server ~slow_ms:0. (fun ~path ~server:_ ~pool:_ ->
          let reqs =
            [ load_req ~id:1 ~n:6; op_req ~id:2 "identifiable" ]
          in
          ignore (run_client path reqs);
          let fd = connect path in
          Fun.protect
            ~finally:(fun () -> close_fd fd)
            (fun () ->
              send_all fd
                (req
                   [
                     ("id", Jsonx.Int 1);
                     ("op", Jsonx.String "slow");
                     ("limit", Jsonx.Int 8);
                   ]
                ^ "\n");
              let v = parse_response (recv_line fd) in
              check cs "slow op ok" "ok"
                (Option.value (member_string "status" v) ~default:"<missing>");
              match Jsonx.member "entries" v with
              | Some (Jsonx.List entries) ->
                  check Alcotest.bool "both requests captured" true
                    (List.length entries >= 2);
                  List.iter
                    (fun e ->
                      check Alcotest.bool "entry carries a request id" true
                        (match member_int "req" e with
                        | Some r -> r > 0
                        | None -> false);
                      check Alcotest.bool "entry carries the connection id"
                        true
                        (match member_int "conn" e with
                        | Some c -> c >= 0
                        | None -> false))
                    entries;
                  (* The newest captured request with spans must carry
                     the serve.request root. *)
                  check Alcotest.bool "a span tree was captured" true
                    (List.exists
                       (fun e ->
                         match Jsonx.member "spans" e with
                         | Some (Jsonx.List (_ :: _)) -> true
                         | Some _ | None -> false)
                       entries)
              | Some _ | None -> Alcotest.fail "slow response lacks entries")))

(* ---------- shed guard on the empty histogram ---------- *)

let test_no_shed_before_first_observation () =
  (* A negative threshold is always exceeded by a real quantile — but
     an empty histogram must read as "no evidence", not "p95 = 0", so
     the first client is admitted no matter the threshold. *)
  with_server ~shed_wait_p95:(-1.0) (fun ~path ~server ~pool:_ ->
      let a = connect path in
      Fun.protect
        ~finally:(fun () -> close_fd a)
        (fun () ->
          send_all a (op_req ~id:1 "stats" ^ "\n");
          check cs "first client admitted despite threshold -1" "no_session"
            (Option.value
               (member_string "code" (parse_response (recv_line a)))
               ~default:"<missing>");
          check ci "nothing shed" 0
            (Obs.Metrics.counter_value (Server.shed_total server));
          (* Once the histogram holds the first wait, the threshold
             applies again. *)
          let b = connect path in
          Fun.protect
            ~finally:(fun () -> close_fd b)
            (fun () ->
              check cs "second client shed" "overloaded"
                (Option.value
                   (member_string "code" (parse_response (recv_line b)))
                   ~default:"<missing>"))))

(* ---------- socket-mode log/trace determinism ---------- *)

(* The acceptance contract of the observability layer: with the fake
   clock, a serialized socket session produces byte-identical
   structured logs and traces across runs and across --jobs levels,
   and every request-scoped event carries its request id. *)
let test_socket_log_trace_jobs_invariant () =
  let reqs = workload 1 in
  let run jobs =
    let buf = Buffer.create 2048 in
    Fun.protect
      ~finally:(fun () ->
        Obs.Log.disable ();
        Obs.Log.set_level Obs.Log.Info;
        Obs.Trace.disable ();
        Obs.Trace.clear ();
        Obs.Slow.clear ();
        Obs.Clock.use_real ())
      (fun () ->
        Obs.Clock.use_fake ();
        Obs.Ctx.reset_ids ();
        Obs.Trace.clear ();
        Obs.Trace.enable ();
        Obs.Log.set_level Obs.Log.Debug;
        Obs.Log.to_buffer buf;
        Obs.Slow.clear ();
        let transcript = ref "" in
        let sock = ref "" in
        with_server ~jobs ~slow_ms:0. (fun ~path ~server:_ ~pool:_ ->
            sock := path;
            transcript := run_client path reqs);
        (* The serve.listen event carries the (per-run) socket path:
           the one legitimately run-dependent byte sequence. *)
        let scrub s =
          let pat = !sock in
          let lp = String.length pat in
          let b = Buffer.create (String.length s) in
          let i = ref 0 in
          while !i < String.length s do
            if
              lp > 0
              && !i + lp <= String.length s
              && String.sub s !i lp = pat
            then begin
              Buffer.add_string b "<sock>";
              i := !i + lp
            end
            else begin
              Buffer.add_char b s.[!i];
              incr i
            end
          done;
          Buffer.contents b
        in
        (!transcript, scrub (Buffer.contents buf), Obs.Trace.to_chrome_json ()))
  in
  (* On the socket path a worker's trailing latency/busy clock reads
     race with the dispatcher picking up the next pipelined request,
     so tick-exact times are only reproducible at a fixed --jobs;
     across jobs levels the times are scrubbed and everything else —
     event sequence, levels, request/connection attribution, span
     structure — must not move by a byte.  (The stdin serve loop
     dispatches synchronously, which is why the CLI golden leg can
     diff the raw bytes across --jobs.) *)
  let scrub_times s =
    let keys = [ {|"ts":|}; {|"dur":|}; {|"wall_ms":|}; {|"queue_ms":|} ] in
    let n = String.length s in
    let b = Buffer.create n in
    let starts_at i k =
      i + String.length k <= n && String.sub s i (String.length k) = k
    in
    let is_num c =
      (c >= '0' && c <= '9')
      || c = '.' || c = '-' || c = '+' || c = 'e' || c = 'E'
    in
    let i = ref 0 in
    while !i < n do
      match List.find_opt (starts_at !i) keys with
      | Some k ->
          Buffer.add_string b k;
          Buffer.add_char b '_';
          i := !i + String.length k;
          while !i < n && is_num s.[!i] do
            incr i
          done
      | None ->
          Buffer.add_char b s.[!i];
          incr i
    done;
    Buffer.contents b
  in
  let t1, log1, trace1 = run 1 in
  let t1b, log1b, trace1b = run 1 in
  let t4, log4, trace4 = run 4 in
  check cs "transcript equal across runs" t1 t1b;
  check cs "event log byte-identical across runs" log1 log1b;
  check cs "trace byte-identical across runs" trace1 trace1b;
  check cs "transcript equal across jobs 1 vs 4" t1 t4;
  check cs "event log identical across jobs 1 vs 4 (times scrubbed)"
    (scrub_times log1) (scrub_times log4);
  check cs "trace identical across jobs 1 vs 4 (times scrubbed)"
    (scrub_times trace1) (scrub_times trace4);
  (* Attribution: the per-request events and every span carry ids. *)
  let contains hay needle =
    let lh = String.length hay and ln = String.length needle in
    let rec scan i =
      i + ln <= lh && (String.sub hay i ln = needle || scan (i + 1))
    in
    ln = 0 || scan 0
  in
  String.split_on_char '\n' log1
  |> List.iter (fun l ->
         if contains l "serve.request" || contains l "serve.slow" then
           check Alcotest.bool ("log line carries req: " ^ l) true
             (contains l {|"req":|}));
  check Alcotest.bool "trace spans carry req args" true
    (contains trace1 {|"req":|})

(* ---------- NETTOMO_CHECK soak determinism ---------- *)

let soak_clients = 8

let soak_workload k =
  let n = 6 + k in
  let queries = [| "identifiable"; "mmp"; "plan" |] in
  let rec steps i acc =
    if i > 12 then List.rev acc
    else
      let d =
        if i mod 2 = 1 then delta_link ~id:(2 * i) "add_link" 1 3
        else delta_link ~id:(2 * i) "remove_link" 1 3
      in
      let q = op_req ~id:((2 * i) + 1) queries.(i mod 3) in
      steps (i + 1) (q :: d :: acc)
  in
  load_req ~id:1 ~n :: steps 1 []

(* Lines of the dump whose metric name ends in _total: the monotonic
   counters, which must not depend on scheduling. (Histogram buckets
   depend on fake-clock interleaving; gauges are instantaneous.) *)
let counter_lines dump =
  String.split_on_char '\n' dump
  |> List.filter (fun l ->
         let name =
           match String.index_opt l '{' with
           | Some i -> String.sub l 0 i
           | None -> (
               match String.index_opt l ' ' with
               | Some i -> String.sub l 0 i
               | None -> l)
         in
         String.ends_with ~suffix:"_total" name)

let run_concurrent_soak () =
  Obs.Metrics.reset ();
  Obs.Clock.use_fake ();
  let transcripts = Array.make soak_clients "" in
  with_server (fun ~path ~server ~pool:_ ->
      let threads =
        List.init soak_clients (fun k ->
            Thread.create
              (fun () -> transcripts.(k) <- run_client path (soak_workload k))
              ())
      in
      List.iter Thread.join threads;
      check ci "soak served 200 requests"
        (soak_clients * List.length (soak_workload 0))
        (Obs.Metrics.counter_value (Server.requests_total server)));
  (counter_lines (Obs.Metrics.dump ()), transcripts)

let run_serial_soak () =
  Obs.Metrics.reset ();
  Obs.Clock.use_fake ();
  let transcripts =
    Array.init soak_clients (fun k -> replay (soak_workload k))
  in
  (counter_lines (Obs.Metrics.dump ()), transcripts)

let test_soak_determinism () =
  Fun.protect
    ~finally:(fun () ->
      Obs.Clock.use_real ();
      Obs.Metrics.reset ())
    (fun () ->
      Invariant.with_enabled true (fun () ->
          let counters1, transcripts1 = run_concurrent_soak () in
          let counters2, transcripts2 = run_concurrent_soak () in
          (* Two concurrent runs: identical counters, identical bytes. *)
          check (Alcotest.list cs) "counters equal across concurrent runs"
            counters1 counters2;
          Array.iteri
            (fun k t1 ->
              check cs
                (Printf.sprintf "client %d transcript equal across runs" k)
                t1 transcripts2.(k))
            transcripts1;
          (* Against the serial oracle: same transcripts, and the
             engine counters sum to the same totals (the serial run has
             no pool/server instruments, so compare session_* only). *)
          let serial_counters, serial_transcripts = run_serial_soak () in
          Array.iteri
            (fun k t ->
              check cs
                (Printf.sprintf "client %d transcript equals serial replay" k)
                t serial_transcripts.(k))
            transcripts1;
          let session_only =
            List.filter (fun l -> String.starts_with ~prefix:"session_" l)
          in
          check (Alcotest.list cs)
            "session counters: concurrent sum equals serial sum"
            (session_only serial_counters)
            (session_only counters1)))

let suite =
  [
    Alcotest.test_case "concurrent transcripts equal single-client replay"
      `Quick test_concurrent_transcripts;
    Alcotest.test_case "shared store serves across sessions, counted once"
      `Quick test_shared_store_cross_session;
    Alcotest.test_case "shared store serves coverage and plans across sessions"
      `Quick test_shared_store_coverage;
    Alcotest.test_case "fault: disconnect mid-request" `Quick
      test_disconnect_mid_request;
    Alcotest.test_case "fault: half-written line completes later" `Quick
      test_half_written_line_completes;
    Alcotest.test_case "fault: oversized request line" `Quick
      test_oversized_request;
    Alcotest.test_case "fault: slowloris stalled writer" `Quick
      test_slowloris_stalled_writer;
    Alcotest.test_case "shed at max connections" `Quick test_shed_at_max_conns;
    Alcotest.test_case "shed on pool queue-wait p95" `Quick
      test_shed_on_queue_wait;
    Alcotest.test_case "no shed before the first queue-wait observation"
      `Quick test_no_shed_before_first_observation;
    Alcotest.test_case "status and scrape answer under pool saturation"
      `Quick test_status_and_scrape_under_saturation;
    Alcotest.test_case "slow-query ring captures attributed requests" `Quick
      test_slow_capture_over_socket;
    Alcotest.test_case "socket log/trace byte-identical across jobs" `Quick
      test_socket_log_trace_jobs_invariant;
    Alcotest.test_case "NETTOMO_CHECK soak: counters deterministic" `Quick
      test_soak_determinism;
  ]
