(* nettomo — command-line front end.

   Subcommands:
     gen        generate a topology (er / rg / ba / pl / isp / grid / ring)
     stats      degree and connectivity summary of a topology
     decompose  biconnected / triconnected structure, cuts, 2-vertex cuts
     check      identifiability of a monitor placement (Theorems 3.1-3.3)
     place      minimum monitor placement (Algorithm 1, MMP)
     solve      simulate delays and recover them from walk measurements
     coverage   per-link coverage and greedy monitor augmentation
     routing    fixed shortest-path-routing baseline vs MMP
     robust     single-failure robustness of a placement
     experiment RMP Monte-Carlo sweep (parallel via --jobs, JSON via --json)
     serve      dynamic session over a JSON-lines protocol on stdin/stdout
     bench      utilities over nettomo-bench/1 reports (bench diff A B)
     dot        Graphviz export

   place, solve and coverage print the response lines of the serve
   protocol (one line per request, as `nettomo serve --no-wall-time`
   answers them). Topologies are read and written in the edge-list
   format of Nettomo_topo.Edgelist ("u v" per line, "#" comments). *)

open Cmdliner
open Nettomo_graph
open Nettomo_topo
open Nettomo_core
module Prng = Nettomo_util.Prng
module Pool = Nettomo_util.Pool
module Jsonx = Nettomo_util.Jsonx
module Store = Nettomo_store.Store
module Obs = Nettomo_obs.Obs
module Protocol = Nettomo_engine.Protocol

(* ------------------------------------------------------------------ *)
(* Common arguments                                                    *)

let topology_arg =
  let doc = "Topology file (edge list: two node ids per line)." in
  Arg.(required & pos 0 (some file) None & info [] ~docv:"TOPOLOGY" ~doc)

let seed_arg =
  let doc = "Seed for all randomized steps (default 7)." in
  Arg.(value & opt int 7 & info [ "seed" ] ~docv:"SEED" ~doc)

let monitors_arg =
  let doc = "Comma-separated monitor node ids, e.g. --monitors 0,4,17." in
  Arg.(value & opt (list int) [] & info [ "m"; "monitors" ] ~docv:"IDS" ~doc)

let output_arg =
  let doc = "Output file (default: standard output)." in
  Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc)

(* The topology file, parsed. A file that does not parse is a usage
   error (exit 124) carrying the parser's line-numbered message. *)
let graph_arg =
  let parse file =
    match Edgelist.read_file file with
    | g -> `Ok g
    | exception Edgelist.Parse_error { line; message } ->
        `Error (false, Printf.sprintf "%s: line %d: %s" file line message)
  in
  Term.(ret (const parse $ topology_arg))

(* The topology with --monitors, or with MMP's placement under --mmp. *)
let placement_arg =
  let mmp_arg =
    Arg.(
      value & flag
      & info [ "mmp" ] ~doc:"Ignore --monitors and use MMP's placement.")
  in
  let pick g monitors mmp =
    if not mmp then `Ok (g, monitors)
    else
      match Mmp.place g with
      | placed -> `Ok (g, Graph.NodeSet.elements placed)
      | exception Invalid_argument m -> `Error (false, m)
  in
  Term.(ret (const pick $ graph_arg $ monitors_arg $ mmp_arg))

let emit output s =
  match output with
  | None -> print_string s
  | Some file ->
      let oc = open_out file in
      Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)

let net_of g monitors =
  match monitors with
  | [] -> `Error (false, "at least one --monitors id is required")
  | _ -> (
      try `Ok (Net.create g ~monitors) with Invalid_argument m -> `Error (false, m))

(* ------------------------------------------------------------------ *)
(* gen                                                                 *)

let gen_cmd =
  let model_arg =
    let doc =
      "Topology model: er (Erdős–Rényi), er-sparse (skip-sampled ER for \
       10^4+ nodes), rg (random geometric), ba (Barabási–Albert), pl \
       (Chung–Lu power law), waxman, waxman-sparse (thinned Waxman for \
       10^4+ nodes), isp (synthetic ISP-like), grid, ring, complete."
    in
    Arg.(value & opt string "ba" & info [ "model" ] ~docv:"MODEL" ~doc)
  in
  let n_arg =
    Arg.(value & opt int 50 & info [ "n"; "nodes" ] ~docv:"N" ~doc:"Number of nodes.")
  in
  let p_arg =
    Arg.(value & opt float 0.1 & info [ "p" ] ~doc:"ER link probability.")
  in
  let radius_arg =
    Arg.(value & opt float 0.25 & info [ "radius" ] ~doc:"RG connection radius.")
  in
  let nmin_arg =
    Arg.(value & opt int 3 & info [ "nmin" ] ~doc:"BA minimum attachment degree.")
  in
  let alpha_arg =
    Arg.(
      value & opt float 0.42
      & info [ "alpha" ] ~doc:"PL degree exponent / Waxman distance scale.")
  in
  let beta_arg =
    Arg.(value & opt float 0.3 & info [ "beta" ] ~doc:"Waxman base link rate.")
  in
  let as_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "as" ] ~docv:"NAME"
          ~doc:
            "For --model isp: AS name from the paper's Tables 2-3 (e.g. \
             'Ebone', 'AS8717').")
  in
  let connected_arg =
    Arg.(
      value & flag
      & info [ "connected" ]
          ~doc:"Redraw until the realization is connected (ER / RG / PL).")
  in
  let run model n p radius nmin alpha beta as_name connected seed output =
    let rng = Prng.create seed in
    let draw () =
      match model with
      | "er" -> Ok (Gen.erdos_renyi rng ~n ~p)
      | "er-sparse" -> Ok (Gen.erdos_renyi_sparse rng ~n ~p)
      | "rg" -> Ok (Gen.random_geometric rng ~n ~radius)
      | "ba" -> Ok (Gen.barabasi_albert rng ~n ~nmin)
      | "pl" -> Ok (Gen.power_law rng ~n ~alpha)
      | "waxman" -> Ok (Gen.waxman rng ~n ~alpha ~beta)
      | "waxman-sparse" -> Ok (Gen.waxman_sparse rng ~n ~alpha ~beta)
      | "grid" ->
          let side = int_of_float (sqrt (float_of_int n)) in
          Ok (Gen.grid side side)
      | "ring" -> Ok (Gen.ring n)
      | "complete" -> Ok (Gen.complete n)
      | "isp" -> (
          match as_name with
          | None -> Error "--model isp requires --as NAME"
          | Some name -> (
              match Isp.find name with
              | Some spec -> Ok (Isp.generate rng spec)
              | None -> Error (Printf.sprintf "unknown AS %S" name)))
      | other -> Error (Printf.sprintf "unknown model %S" other)
    in
    (* A generator's precondition failure, or parameters too sparse to
       ever connect, is a usage error like any other bad option. *)
    match
      Result.map
        (fun g ->
          if connected && not (Traversal.is_connected g) then
            Gen.until_connected (fun () -> Result.get_ok (draw ()))
          else g)
        (draw ())
    with
    | Error m | (exception Invalid_argument m) -> `Error (false, m)
    | exception Gen.Retries_exhausted { tries } ->
        `Error (false, Printf.sprintf "no connected realization in %d draws" tries)
    | Ok g ->
        emit output (Edgelist.to_string g);
        `Ok ()
  in
  let term =
    Term.(
      ret
        (const run $ model_arg $ n_arg $ p_arg $ radius_arg $ nmin_arg
       $ alpha_arg $ beta_arg $ as_arg $ connected_arg $ seed_arg $ output_arg))
  in
  Cmd.v (Cmd.info "gen" ~doc:"Generate a random or synthetic ISP topology.") term

(* ------------------------------------------------------------------ *)
(* stats                                                               *)

let stats_cmd =
  let run g =
    Format.printf "%a@." Stats.pp (Stats.summary g);
    Format.printf "degree histogram:@.";
    List.iter
      (fun (d, c) -> Format.printf "  degree %3d: %d node(s)@." d c)
      (Stats.degree_histogram g)
  in
  Cmd.v
    (Cmd.info "stats" ~doc:"Degree and connectivity summary of a topology.")
    Term.(const run $ graph_arg)

(* ------------------------------------------------------------------ *)
(* decompose                                                           *)

let decompose_cmd =
  let run g =
    let t = Triconnected.decompose g in
    let show set =
      Graph.NodeSet.elements set |> List.map string_of_int |> String.concat " "
    in
    Format.printf "cut vertices: %s@." (show t.Triconnected.cut_vertices);
    Format.printf "2-vertex cuts: %s@."
      (String.concat " "
         (List.map
            (fun (a, b) -> Printf.sprintf "{%d,%d}" a b)
            t.Triconnected.separation_pairs));
    Format.printf "separation vertices: %s@."
      (show t.Triconnected.separation_vertices);
    List.iter
      (fun ((b : Biconnected.component), tricomps) ->
        Format.printf "block {%s}@." (show b.Biconnected.nodes);
        List.iter
          (fun (tc : Triconnected.component) ->
            Format.printf "  triconnected {%s}@." (show tc.Triconnected.nodes))
          tricomps)
      t.Triconnected.blocks
  in
  Cmd.v
    (Cmd.info "decompose"
       ~doc:"Biconnected and triconnected decomposition with separation vertices.")
    Term.(const run $ graph_arg)

(* ------------------------------------------------------------------ *)
(* check                                                               *)

let check_cmd =
  let run g monitors =
    match net_of g monitors with
    | `Error _ as e -> e
    | `Ok net -> (
        (* The theorems need a connected network; the library rejects
           any other with Invalid_argument. *)
        match Identifiability.network_identifiable net with
        | exception Invalid_argument m -> `Error (false, m)
        | full ->
            let kappa = Net.kappa net in
            Format.printf "monitors: %d@." kappa;
            (if kappa < 2 then
               Format.printf
                 "full network identifiable: false (fewer than 2 monitors: \
                  no measurement path)@."
             else if kappa = 2 then begin
               Format.printf
                 "full network identifiable: %b (Theorem 3.1: impossible \
                  beyond a single link)@."
                 full;
               Format.printf "interior links identifiable (Theorem 3.2): %b@."
                 (Identifiability.interior_identifiable_two net);
               List.iter
                 (fun f ->
                   Format.printf "  failure: %a@." Identifiability.pp_failure f)
                 (Identifiability.interior_two_failures net)
             end
             else
               Format.printf "full network identifiable (Theorem 3.3): %b@."
                 full);
            `Ok ())
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:"Test identifiability of a monitor placement (Section 7.1).")
    Term.(ret (const run $ graph_arg $ monitors_arg))

(* ------------------------------------------------------------------ *)
(* place, solve, coverage: questions the serve protocol answers        *)

(* A serve protocol request line. *)
let request op fields =
  Jsonx.to_string (Jsonx.Obj (("op", Jsonx.String op) :: fields))

(* A fresh protocol server loads the topology file with [monitors] and
   answers [requests]; each response line is printed as [nettomo serve
   --no-wall-time] sends it. The first error response, the load's
   included, is printed and ends the command (exit 124). *)
let ask file seed monitors requests =
  let server = Protocol.create ?seed ~emit_wall_ms:false () in
  let load =
    request "load"
      [
        ("edges", Jsonx.String (In_channel.with_open_bin file In_channel.input_all));
        ("monitors", Jsonx.List (List.map (fun v -> Jsonx.Int v) monitors));
      ]
  in
  let rec go = function
    | [] -> `Ok ()
    | (req, show) :: rest -> (
        let line = Protocol.handle_line server req in
        let resp = Result.to_option (Jsonx.parse line) in
        let field name =
          Option.bind (Option.bind resp (Jsonx.member name)) Jsonx.to_string_opt
        in
        match field "status" with
        | Some "error" ->
            print_endline line;
            `Error (false, Option.value (field "error") ~default:line)
        | Some _ | None ->
            if show then print_endline line;
            go rest)
  in
  go ((load, false) :: List.map (fun req -> (req, true)) requests)

let query_cmds =
  let seeded = Term.(const Option.some $ seed_arg) in
  let augment_arg =
    let doc =
      "Also run the greedy planner: add up to $(docv) monitors maximizing \
       marginal coverage."
    in
    Arg.(value & opt (some int) None & info [ "k"; "augment" ] ~docv:"K" ~doc)
  in
  let coverage_requests k =
    request "coverage" []
    :: List.map (fun k -> request "augment" [ ("k", Jsonx.Int k) ]) (Option.to_list k)
  in
  List.map
    (fun (name, doc, seed, monitors, requests) ->
      Cmd.v (Cmd.info name ~doc)
        Term.(ret (const ask $ topology_arg $ seed $ monitors $ requests)))
    [
      ( "place",
        "Minimum monitor placement — Algorithm 1 (MMP) of the paper: serve's \
         mmp response, the monitors and the rule that placed each.",
        Term.const None,
        Term.const [],
        Term.const [ request "mmp" [] ] );
      ( "solve",
        "Simulate hidden link delays (drawn from --seed) and recover every \
         link metric from constructively planned monitor walks: serve's \
         solve response.",
        seeded,
        Term.(const snd $ placement_arg),
        Term.const [ request "solve" [] ] );
      ( "coverage",
        "Per-link identifiability under the current monitors, each link \
         with its reason (serve's coverage response), and with --augment a \
         greedy monitor-augmentation plan (its augment response).",
        seeded,
        monitors_arg,
        Term.(const coverage_requests $ augment_arg) );
    ]

(* ------------------------------------------------------------------ *)
(* robust                                                              *)

let robust_cmd =
  let run (g, monitors) =
    match net_of g monitors with
    | `Error _ as e -> e
    | `Ok net -> (
        match Robustness.analyze net with
        | exception Invalid_argument m -> `Error (false, m)
        | r ->
            Format.printf "%a@." Robustness.pp r;
            if not (Graph.EdgeSet.is_empty r.Robustness.critical_links) then begin
              Format.printf "critical links:";
              Graph.EdgeSet.iter
                (fun (u, v) -> Format.printf " %d-%d" u v)
                r.Robustness.critical_links;
              Format.printf "@."
            end;
            if not (Graph.NodeSet.is_empty r.Robustness.critical_nodes) then begin
              Format.printf "critical nodes:";
              Graph.NodeSet.iter (fun v -> Format.printf " %d" v) r.Robustness.critical_nodes;
              Format.printf "@."
            end;
            `Ok ())
  in
  Cmd.v
    (Cmd.info "robust"
       ~doc:
         "Single-failure robustness: which link/node failures break the \
          placement's identifiability.")
    Term.(ret (const run $ placement_arg))

(* ------------------------------------------------------------------ *)
(* routing                                                             *)

let routing_cmd =
  let run g =
    let max_rank = Fixed_routing.max_rank g in
    Format.printf
      "fixed shortest-path routing: best attainable rank %d of %d links@."
      max_rank (Graph.n_edges g);
    let greedy = Fixed_routing.greedy_place g in
    let rank = Fixed_routing.rank_of g ~monitors:greedy in
    let ident = Fixed_routing.identifiable_links g ~monitors:greedy in
    Format.printf "greedy placement: %d monitors, rank %d, %d identifiable links@."
      (List.length greedy) rank
      (Graph.EdgeSet.cardinal ident);
    Format.printf "monitors: %s@."
      (String.concat " " (List.map string_of_int greedy));
    (match Mmp.place g with
    | mmp ->
        Format.printf
          "for comparison, MMP under controllable routing: %d monitors, all \
           %d links@."
          (Graph.NodeSet.cardinal mmp) (Graph.n_edges g)
    | exception Invalid_argument _ -> ())
  in
  Cmd.v
    (Cmd.info "routing"
       ~doc:
         "Uncontrollable-routing baseline: greedy monitor placement under \
          fixed shortest-path routing, vs MMP.")
    Term.(const run $ graph_arg)

(* ------------------------------------------------------------------ *)
(* experiment                                                          *)

let experiment_cmd =
  let kappa_arg =
    let doc =
      "Comma-separated monitor budgets to sweep, e.g. --kappa 3,5,10."
    in
    Arg.(value & opt (list int) [ 3 ] & info [ "kappa" ] ~docv:"LIST" ~doc)
  in
  let runs_arg =
    let doc = "Monte-Carlo trials per budget (default 100)." in
    Arg.(value & opt int 100 & info [ "runs" ] ~docv:"N" ~doc)
  in
  let jobs_arg =
    let doc =
      "Worker domains running the trials. Per-trial PRNG substreams make \
       the measured fractions identical for every value of $(docv)."
    in
    Arg.(value & opt int 1 & info [ "j"; "jobs" ] ~docv:"JOBS" ~doc)
  in
  let json_arg =
    let doc = "Also write the sweep as a JSON report to $(docv)." in
    Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)
  in
  let run file g kappas runs jobs seed json =
    if kappas = [] then `Error (false, "at least one --kappa budget is required")
    else
      match
        Pool.with_pool ~jobs (fun pool ->
            let t0 = Obs.Clock.now () in
            let rng = Prng.create seed in
            let rows =
              List.map
                (fun kappa ->
                  (kappa, Rmp.success_fraction_par ~pool rng g ~kappa ~runs))
                kappas
            in
            (rows, Obs.Clock.now () -. t0))
      with
      | exception Invalid_argument m -> `Error (false, m)
      | rows, wall_s ->
          Format.printf
            "RMP sweep: %d trial(s) per budget, %d job(s), %.3f s@." runs jobs
            wall_s;
          Format.printf "%-8s %s@." "kappa" "identifiable fraction";
          List.iter
            (fun (kappa, frac) -> Format.printf "%-8d %.4f@." kappa frac)
            rows;
          (match Mmp.place g with
          | monitors ->
              Format.printf "for comparison, kappa_MMP = %d (guaranteed)@."
                (Graph.NodeSet.cardinal monitors)
          | exception Invalid_argument _ -> ());
          (match json with
          | None -> ()
          | Some path ->
              Jsonx.write_file path
                (Jsonx.Obj
                   [
                     ("schema", Jsonx.String "nettomo-experiment/1");
                     ("topology", Jsonx.String file);
                     ("seed", Jsonx.Int seed);
                     ("jobs", Jsonx.Int jobs);
                     ("runs", Jsonx.Int runs);
                     ("wall_s", Jsonx.Float wall_s);
                     ( "series",
                       Jsonx.List
                         (List.map
                            (fun (kappa, frac) ->
                              Jsonx.Obj
                                [
                                  ("kappa", Jsonx.Int kappa);
                                  ("fraction", Jsonx.Float frac);
                                ])
                            rows) );
                   ]);
              Format.printf "wrote JSON report to %s@." path);
          `Ok ()
  in
  Cmd.v
    (Cmd.info "experiment"
       ~doc:
         "RMP Monte-Carlo sweep: identifiable fraction vs monitor budget, \
          with parallel trials (--jobs) and machine-readable output \
          (--json).")
    Term.(
      ret
        (const run $ topology_arg $ graph_arg $ kappa_arg $ runs_arg $ jobs_arg
       $ seed_arg $ json_arg))

(* ------------------------------------------------------------------ *)
(* serve                                                               *)

(* A flag's value, else the named environment variable when non-empty. *)
let flag_or_env flag var =
  match (flag, Sys.getenv_opt var) with
  | Some _, _ -> flag
  | None, (None | Some "") -> None
  | None, Some v -> Some v

(* A setting only the environment gives: unset or empty is [None], and a
   value [parse] rejects is a usage error naming the variable. *)
let env_setting var ~expected parse =
  match Sys.getenv_opt var with
  | None | Some "" -> Ok None
  | Some s -> (
      match parse s with
      | Some v -> Ok (Some v)
      | None -> Error (Printf.sprintf "%s=%s: expected %s" var s expected))

let serve_cmd =
  let jobs_arg =
    let doc = "Worker domains for fanning out \"batch\" requests." in
    Arg.(value & opt int 1 & info [ "j"; "jobs" ] ~docv:"JOBS" ~doc)
  in
  let no_wall_time_arg =
    let doc =
      "Omit the wall_ms response field, for byte-stable output (golden \
       tests)."
    in
    Arg.(value & flag & info [ "no-wall-time" ] ~doc)
  in
  let store_arg =
    let doc =
      "Persistent artifact store directory (created if missing); answers \
       computed by this server warm it and later runs reuse them. Without \
       this flag the NETTOMO_STORE environment variable, when non-empty, \
       names the directory instead; NETTOMO_STORE_MAX_BYTES overrides its \
       size bound (default 256 MiB)."
    in
    Arg.(value & opt (some string) None & info [ "store" ] ~docv:"DIR" ~doc)
  in
  let trace_arg =
    let doc =
      "Write the server's spans as Chrome trace_event JSON to $(docv) on \
       exit (open it in chrome://tracing or ui.perfetto.dev). When the \
       flag is absent, a non-empty NETTOMO_TRACE environment variable \
       names the file instead."
    in
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)
  in
  let listen_arg =
    let doc =
      "Serve many concurrent clients on a Unix-domain socket at $(docv) \
       instead of a single session on stdin/stdout. A stale socket file is \
       replaced; the file is removed on shutdown."
    in
    Arg.(value & opt (some string) None & info [ "listen" ] ~docv:"PATH" ~doc)
  in
  let tcp_arg =
    let doc =
      "Serve concurrent clients on loopback TCP port $(docv) (0 lets the \
       kernel pick; the chosen port is printed on startup). Mutually \
       exclusive with --listen."
    in
    Arg.(value & opt (some int) None & info [ "tcp" ] ~docv:"PORT" ~doc)
  in
  let max_conns_arg =
    let doc =
      "Maximum simultaneous connections in socket mode; further clients \
       are shed with an \"overloaded\" error (default 64)."
    in
    Arg.(value & opt int 64 & info [ "max-conns" ] ~docv:"N" ~doc)
  in
  let shed_wait_arg =
    let doc =
      "Shed new connections while the worker pool's queue-wait p95 exceeds \
       $(docv) seconds (default: no wait-based shedding)."
    in
    Arg.(
      value
      & opt (some float) None
      & info [ "shed-wait-p95" ] ~docv:"SECONDS" ~doc)
  in
  let max_line_bytes_arg =
    let doc =
      "Socket mode: a request line longer than $(docv) bytes gets one \
       bad_request response and the connection is closed (default 1 MiB)."
    in
    Arg.(
      value
      & opt int (1 lsl 20)
      & info [ "max-line-bytes" ] ~docv:"BYTES" ~doc)
  in
  let log_arg =
    let doc =
      "Write structured JSON-lines events to $(docv) (one object per line, \
       deterministic field order; level via NETTOMO_LOG_LEVEL, default \
       info). When the flag is absent, a non-empty NETTOMO_LOG environment \
       variable names the file instead."
    in
    Arg.(value & opt (some string) None & info [ "log" ] ~docv:"FILE" ~doc)
  in
  let slow_ms_arg =
    let doc =
      "Capture requests whose wall time reaches $(docv) milliseconds: their \
       span tree and per-layer breakdown are logged at warn and retained in \
       a bounded in-process ring, queryable with the \"slow\" request or \
       \"nettomo obs slow\". 0 captures everything."
    in
    Arg.(
      value & opt (some float) None & info [ "slow-ms" ] ~docv:"MS" ~doc)
  in
  let run jobs seed no_wall_time store_dir trace listen tcp max_conns
      shed_wait_p95 max_line_bytes log_file slow_ms =
    let socket_listen =
      match (listen, tcp) with
      | Some _, Some _ -> Error "--listen and --tcp are mutually exclusive"
      | Some path, None -> Ok (Some (Nettomo_engine.Server.Unix_socket path))
      | None, Some port -> Ok (Some (Nettomo_engine.Server.Tcp port))
      | None, None -> Ok None
    in
    match
      ( env_setting "NETTOMO_LOG_LEVEL" Obs.Log.level_of_string
          ~expected:"debug, info, warn or error",
        env_setting "NETTOMO_STORE_MAX_BYTES" int_of_string_opt
          ~expected:"a byte count",
        socket_listen )
    with
    | Error m, _, _ | _, Error m, _ | _, _, Error m -> `Error (false, m)
    | Ok level, Ok max_bytes, Ok socket_listen -> (
        Option.iter Obs.Log.set_level level;
        Option.iter Obs.Log.to_file (flag_or_env log_file "NETTOMO_LOG");
        let trace = flag_or_env trace "NETTOMO_TRACE" in
        (* The one place the store environment is read (its size bound
           above): every session this server creates shares the handle,
           so stats and status see it. *)
        let store_dir = flag_or_env store_dir "NETTOMO_STORE" in
        if Option.is_some trace then Obs.Trace.enable ();
        let write_trace () =
          match trace with
          | None -> ()
          | Some file ->
              let oc = open_out file in
              Fun.protect
                ~finally:(fun () -> close_out oc)
                (fun () -> output_string oc (Obs.Trace.to_chrome_json ()))
        in
        match
          Fun.protect ~finally:write_trace (fun () ->
              Pool.with_pool ~jobs (fun pool ->
                  let store =
                    Option.map (fun d -> Store.open_dir ?max_bytes d) store_dir
                  in
                  match socket_listen with
                  | None ->
                      let server =
                        Protocol.create ~pool ~seed
                          ~emit_wall_ms:(not no_wall_time) ?store ?slow_ms ()
                      in
                      Protocol.serve server stdin stdout
                  | Some listen ->
                      let server =
                        Nettomo_engine.Server.create ~seed
                          ~emit_wall_ms:(not no_wall_time) ?store ~max_conns
                          ~max_line_bytes ?shed_wait_p95 ?slow_ms ~pool listen
                      in
                      (match Nettomo_engine.Server.port server with
                      | Some port ->
                          Printf.eprintf "nettomo serve: listening on 127.0.0.1:%d\n%!" port
                      | None -> ());
                      (* SIGINT/SIGTERM ask the dispatcher to drain
                         in-flight requests, flush and exit cleanly. *)
                      let request_stop _ =
                        Nettomo_engine.Server.shutdown server
                      in
                      let prev_int =
                        Sys.signal Sys.sigint (Sys.Signal_handle request_stop)
                      in
                      let prev_term =
                        Sys.signal Sys.sigterm (Sys.Signal_handle request_stop)
                      in
                      Fun.protect
                        ~finally:(fun () ->
                          Sys.set_signal Sys.sigint prev_int;
                          Sys.set_signal Sys.sigterm prev_term)
                        (fun () -> Nettomo_engine.Server.run server)))
        with
        | () -> `Ok ()
        | exception Invalid_argument m -> `Error (false, m)
        | exception Unix.Unix_error (err, fn, arg) ->
            `Error
              ( false,
                Printf.sprintf "%s(%s): %s" fn arg (Unix.error_message err) ))
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Dynamic tomography session over a JSON-lines request/response \
          protocol — a single session on stdin/stdout by default, or many \
          concurrent client sessions on a Unix-domain socket (--listen) or \
          loopback TCP port (--tcp), multiplexed onto one worker pool with \
          admission control.")
    Term.(
      ret
        (const run $ jobs_arg $ seed_arg $ no_wall_time_arg $ store_arg
       $ trace_arg $ listen_arg $ tcp_arg $ max_conns_arg $ shed_wait_arg
       $ max_line_bytes_arg $ log_arg $ slow_ms_arg))

(* ------------------------------------------------------------------ *)
(* store                                                               *)

let store_cmd =
  let dir_arg =
    let doc = "Store directory (as passed to serve --store / NETTOMO_STORE)." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"DIR" ~doc)
  in
  let fmt_bytes n =
    if n >= 1024 * 1024 then Printf.sprintf "%.1f MiB" (float_of_int n /. 1048576.)
    else if n >= 1024 then Printf.sprintf "%.1f KiB" (float_of_int n /. 1024.)
    else Printf.sprintf "%d B" n
  in
  let stats_cmd =
    let run dir =
      let es = Store.entries dir in
      let total = List.fold_left (fun acc e -> acc + e.Store.size) 0 es in
      let invalid = List.filter (fun e -> not e.Store.valid) es in
      Format.printf "entries : %d@." (List.length es);
      Format.printf "bytes   : %d (%s)@." total (fmt_bytes total);
      Format.printf "invalid : %d@." (List.length invalid);
      `Ok ()
    in
    Cmd.v
      (Cmd.info "stats" ~doc:"Entry count and total size of a store directory.")
      Term.(ret (const run $ dir_arg))
  in
  let verify_cmd =
    let run dir =
      let es = Store.entries dir in
      let invalid = List.filter (fun e -> not e.Store.valid) es in
      List.iter
        (fun e -> Format.printf "corrupt: %s (%d bytes)@." e.Store.file e.Store.size)
        invalid;
      Format.printf "%d entr%s checked, %d corrupt@." (List.length es)
        (if List.length es = 1 then "y" else "ies")
        (List.length invalid);
      if invalid = [] then `Ok ()
      else
        (* Corrupt entries are harmless at runtime (they read as misses),
           but verify is the offline audit — make them visible to CI. *)
        `Error (false, "store contains corrupt entries")
    in
    Cmd.v
      (Cmd.info "verify"
         ~doc:
           "Check every entry's magic, version and checksum; exit non-zero \
            if any entry is corrupt.")
      Term.(ret (const run $ dir_arg))
  in
  let gc_cmd =
    let max_bytes_arg =
      let doc = "Evict oldest entries until the store is at most $(docv) bytes." in
      Arg.(
        required
        & opt (some int) None
        & info [ "max-bytes" ] ~docv:"BYTES" ~doc)
    in
    let run dir max_bytes =
      if max_bytes < 0 then `Error (false, "--max-bytes must be non-negative")
      else begin
        let removed = Store.gc_dir dir ~max_bytes in
        let remaining =
          List.fold_left (fun acc e -> acc + e.Store.size) 0 (Store.entries dir)
        in
        Format.printf "evicted %d entr%s; %s remain%s@." removed
          (if removed = 1 then "y" else "ies")
          (fmt_bytes remaining)
          (if removed = 0 then " (already within bound)" else "");
        `Ok ()
      end
    in
    Cmd.v
      (Cmd.info "gc"
         ~doc:"Evict oldest-first until the store fits a byte bound.")
      Term.(ret (const run $ dir_arg $ max_bytes_arg))
  in
  Cmd.group
    (Cmd.info "store"
       ~doc:
         "Inspect and maintain a persistent artifact store (see serve \
          --store).")
    [ stats_cmd; verify_cmd; gc_cmd ]

(* ------------------------------------------------------------------ *)
(* obs                                                                 *)

let obs_cmd =
  let dump_cmd =
    let run () =
      print_string (Obs.Metrics.dump ());
      `Ok ()
    in
    Cmd.v
      (Cmd.info "dump"
         ~doc:
           "Print this process's Obs metrics registry in Prometheus text \
            format. (Each nettomo process owns its registry; a running \
            server exposes the same data via the \"metrics\" request.)")
      Term.(ret (const run $ const ()))
  in
  let check_trace_cmd =
    let file_arg =
      let doc = "Chrome trace_event JSON file, as written by serve --trace." in
      Arg.(required & pos 0 (some file) None & info [] ~docv:"TRACE" ~doc)
    in
    (* Validation contract used by CI: the file parses as JSON, every
       event is a complete ("X") span with the expected fields, and the
       spans form a consistent tree. Every span carries ids in args
       ("span" / "parent" / "req"), and the check reassembles the
       cross-domain parent–child tree from them: ids unique, every
       parent present, children contained in their parent's interval,
       request id constant down each edge. Ids are registered in one
       pass and edges checked in a second, each walking the spans in
       file order and reporting the first bad one. The epsilon absorbs
       the %.3f microsecond quantization of the writer. *)
    let eps = 0.01 in
    let num = function
      | Jsonx.Int i -> Some (float_of_int i)
      | Jsonx.Float f -> Some f
      | Jsonx.Null | Jsonx.Bool _ | Jsonx.String _ | Jsonx.List _ | Jsonx.Obj _
        ->
          None
    in
    let arg_int name ev =
      match Jsonx.member "args" ev with
      | Some (Jsonx.Obj _ as args) ->
          Option.bind
            (Option.bind (Jsonx.member name args) Jsonx.to_string_opt)
            int_of_string_opt
      | Some _ | None -> None
    in
    let parse_event i ev =
      let get name = Option.bind (Jsonx.member name ev) num in
      match
        ( Option.bind (Jsonx.member "name" ev) Jsonx.to_string_opt,
          Option.bind (Jsonx.member "ph" ev) Jsonx.to_string_opt,
          get "ts", get "dur", get "tid" )
      with
      | Some _, Some "X", Some ts, Some dur, Some _
        when ts >= 0. && dur >= 0. ->
          Ok (ts, dur, arg_int "span" ev, arg_int "parent" ev, arg_int "req" ev)
      | _ -> Error (Printf.sprintf "event %d is not a well-formed span" i)
    in
    let check_tree spans =
      let by_id = Hashtbl.create 64 in
      let register (ts, dur, id, _, req) =
        match id with
        | None -> Some "a span is missing its \"span\" id arg"
        | Some id when Hashtbl.mem by_id id ->
            Some (Printf.sprintf "duplicate span id %d" id)
        | Some id ->
            Hashtbl.replace by_id id (ts, dur, req);
            None
      in
      let nested = function
        | ts, dur, Some id, Some p, req -> (
            match Hashtbl.find_opt by_id p with
            | None ->
                Some (Printf.sprintf "span %d: parent %d not in trace" id p)
            | Some (pts, pdur, preq) ->
                if ts +. eps < pts || ts +. dur > pts +. pdur +. eps then
                  Some
                    (Printf.sprintf
                       "span %d [%f, %f] escapes parent %d [%f, %f]" id ts
                       (ts +. dur) p pts (pts +. pdur))
                else if
                  match (req, preq) with
                  | Some r, Some pr -> r <> pr
                  | _ -> false
                then
                  Some
                    (Printf.sprintf
                       "span %d carries a different request id than its \
                        parent %d"
                       id p)
                else None)
        | _ -> None
      in
      match List.find_map register spans with
      | Some m -> Error m
      | None -> (
          match List.find_map nested spans with
          | Some m -> Error m
          | None -> Ok ())
    in
    let run file =
      let raw = In_channel.with_open_bin file In_channel.input_all in
      match Jsonx.parse raw with
      | Error m -> `Error (false, "trace is not valid JSON: " ^ m)
      | Ok doc -> (
          match Jsonx.member "traceEvents" doc with
          | Some (Jsonx.List events) -> (
              let parsed =
                List.mapi parse_event events
                |> List.fold_left
                     (fun acc r ->
                       match (acc, r) with
                       | Error _, _ -> acc
                       | Ok acc, Ok v -> Ok (v :: acc)
                       | Ok _, Error m -> Error m)
                     (Ok [])
                |> Result.map List.rev
              in
              match Result.bind parsed check_tree with
              | Ok () ->
                  Format.printf "%d span(s): parent-child tree consistent@."
                    (List.length events);
                  `Ok ()
              | Error m -> `Error (false, m))
          | Some _ | None -> `Error (false, "trace has no traceEvents array"))
    in
    Cmd.v
      (Cmd.info "check-trace"
         ~doc:
           "Validate a trace file written by serve --trace: JSON parses, \
            events are well-formed complete spans, and their span ids form \
            a consistent parent-child tree.")
      Term.(ret (const run $ file_arg))
  in
  let slow_cmd =
    let socket_arg =
      let doc = "Unix-domain socket of a running serve --listen server." in
      Arg.(
        value & opt (some string) None & info [ "socket" ] ~docv:"PATH" ~doc)
    in
    let tcp_arg =
      let doc = "Loopback TCP port of a running serve --tcp server." in
      Arg.(value & opt (some int) None & info [ "tcp" ] ~docv:"PORT" ~doc)
    in
    let limit_arg =
      let doc = "Maximum entries to fetch (newest first, default 16)." in
      Arg.(value & opt int 16 & info [ "limit" ] ~docv:"N" ~doc)
    in
    let run socket tcp limit =
      let addr =
        match (socket, tcp) with
        | Some _, Some _ -> Error "--socket and --tcp are mutually exclusive"
        | Some path, None -> Ok (Unix.ADDR_UNIX path)
        | None, Some port ->
            Ok (Unix.ADDR_INET (Unix.inet_addr_loopback, port))
        | None, None -> Error "one of --socket or --tcp is required"
      in
      match addr with
      | Error m -> `Error (false, m)
      | Ok addr -> (
          match
            let ic, oc = Unix.open_connection addr in
            Fun.protect
              ~finally:(fun () -> close_in_noerr ic)
              (fun () ->
                output_string oc
                  (request "slow" [ ("id", Jsonx.Int 0); ("limit", Jsonx.Int limit) ]
                  ^ "\n");
                flush oc;
                Option.value (In_channel.input_line ic) ~default:"")
          with
          | line ->
              print_endline line;
              `Ok ()
          | exception Unix.Unix_error (err, fn, arg) ->
              `Error
                ( false,
                  Printf.sprintf "%s(%s): %s" fn arg (Unix.error_message err)
                ))
    in
    Cmd.v
      (Cmd.info "slow"
         ~doc:
           "Fetch the slow-request ring of a running serve server (one \
            \"slow\" request over its socket): entries newest first, each \
            with request id, op, wall and queue time, per-layer stats and \
            the captured span tree. Arm capture with serve --slow-ms.")
      Term.(ret (const run $ socket_arg $ tcp_arg $ limit_arg))
  in
  Cmd.group
    (Cmd.info "obs"
       ~doc:
         "Observability utilities: metrics registry dump, trace validation, \
          slow-request ring of a live server.")
    [ dump_cmd; check_trace_cmd; slow_cmd ]

(* ------------------------------------------------------------------ *)
(* bench                                                               *)

let bench_cmd =
  let diff_cmd =
    let file_a =
      Arg.(
        required & pos 0 (some file) None
        & info [] ~docv:"A" ~doc:"Baseline nettomo-bench/1 JSON report.")
    in
    let file_b =
      Arg.(
        required & pos 1 (some file) None
        & info [] ~docv:"B" ~doc:"Candidate nettomo-bench/1 JSON report.")
    in
    let threshold_arg =
      let doc = "Relative swing above which a numeric series field is flagged." in
      Arg.(value & opt float 0.10 & info [ "threshold" ] ~docv:"FRAC" ~doc)
    in
    let ignore_arg =
      let doc =
        "Comma-separated series field names to exclude from the gate — for \
         timing-carrying series fields (e.g. incremental_s,speedup) so the \
         deterministic remainder can still be diffed in CI."
      in
      Arg.(value & opt (list string) [] & info [ "ignore" ] ~docv:"FIELDS" ~doc)
    in
    (* Only the "series" payloads are gated: they are the deterministic
       half of the report contract (byte-identical across --jobs).
       wall_s and spans are timing and only reported. *)
    let num = function
      | Jsonx.Int i -> Some (float_of_int i)
      | Jsonx.Float f -> Some f
      | Jsonx.Null | Jsonx.Bool _ | Jsonx.String _ | Jsonx.List _ | Jsonx.Obj _
        ->
          None
    in
    let rec diff_value ~threshold ~ignore_fields path a b flags =
      match (num a, num b) with
      | Some x, Some y ->
          let swing = Float.abs (y -. x) /. Float.max (Float.abs x) 1e-9 in
          if swing > threshold then
            Printf.sprintf "%s: %g -> %g (%+.0f%%)" path x y (100.0 *. swing)
            :: flags
          else flags
      | _ -> (
          match (a, b) with
          | Jsonx.String x, Jsonx.String y ->
              if String.equal x y then flags
              else Printf.sprintf "%s: %S -> %S" path x y :: flags
          | Jsonx.Bool x, Jsonx.Bool y ->
              if Bool.equal x y then flags
              else Printf.sprintf "%s: %b -> %b" path x y :: flags
          | Jsonx.Null, Jsonx.Null -> flags
          | Jsonx.Obj fa, Jsonx.Obj fb ->
              let keys =
                List.sort_uniq String.compare
                  (List.map fst fa @ List.map fst fb)
              in
              List.fold_left
                (fun flags key ->
                  if List.mem key ignore_fields then flags
                  else
                    let sub = path ^ "." ^ key in
                    match (List.assoc_opt key fa, List.assoc_opt key fb) with
                    | Some va, Some vb ->
                        diff_value ~threshold ~ignore_fields sub va vb flags
                    | Some _, None -> (sub ^ ": removed") :: flags
                    | None, Some _ -> (sub ^ ": added") :: flags
                    | None, None -> flags)
                flags keys
          | Jsonx.List la, Jsonx.List lb ->
              if List.length la <> List.length lb then
                Printf.sprintf "%s: %d entries -> %d" path (List.length la)
                  (List.length lb)
                :: flags
              else
                List.fold_left
                  (fun (i, flags) (va, vb) ->
                    ( i + 1,
                      diff_value ~threshold ~ignore_fields
                        (Printf.sprintf "%s[%d]" path i)
                        va vb flags ))
                  (0, flags) (List.combine la lb)
                |> snd
          | _ -> (path ^ ": type mismatch") :: flags)
    in
    let load_report file =
      let raw = In_channel.with_open_bin file In_channel.input_all in
      match Jsonx.parse raw with
      | Error m -> Error (Printf.sprintf "%s: not valid JSON: %s" file m)
      | Ok doc -> (
          match
            Option.bind (Jsonx.member "schema" doc) Jsonx.to_string_opt
          with
          | Some "nettomo-bench/1" -> (
              match Jsonx.member "experiments" doc with
              | Some (Jsonx.List es) ->
                  Ok
                    (List.filter_map
                       (fun e ->
                         match
                           ( Option.bind (Jsonx.member "id" e)
                               Jsonx.to_string_opt,
                             Jsonx.member "series" e,
                             Jsonx.member "wall_s" e )
                         with
                         | Some id, Some series, wall -> Some (id, series, wall)
                         | _ -> None)
                       es)
              | Some _ | None ->
                  Error (file ^ ": report has no experiments array"))
          | Some s ->
              Error (Printf.sprintf "%s: unsupported schema %S" file s)
          | None -> Error (file ^ ": missing schema field"))
    in
    let run a b threshold ignore_fields =
      match (load_report a, load_report b) with
      | Error m, _ | _, Error m -> `Error (false, m)
      | Ok ea, Ok eb ->
          let flags = ref [] in
          List.iter
            (fun (id, series_a, wall_a) ->
              match List.find_opt (fun (i, _, _) -> String.equal i id) eb with
              | None ->
                  flags := Printf.sprintf "%s: experiment removed" id :: !flags
              | Some (_, series_b, wall_b) ->
                  (match (Option.bind wall_a num, Option.bind wall_b num) with
                  | Some wa, Some wb ->
                      Format.printf "%-16s wall %8.3f s -> %8.3f s (timing, not \
                                     gated)@."
                        id wa wb
                  | _ -> ());
                  flags :=
                    diff_value ~threshold ~ignore_fields (id ^ ".series")
                      series_a series_b !flags)
            ea;
          List.iter
            (fun (id, _, _) ->
              if not (List.exists (fun (i, _, _) -> String.equal i id) ea) then
                flags := Printf.sprintf "%s: experiment added" id :: !flags)
            eb;
          let flags = List.rev !flags in
          List.iter (fun f -> Format.printf "SWING %s@." f) flags;
          Format.printf "%d series swing(s) above %.0f%%@." (List.length flags)
            (100.0 *. threshold);
          if flags = [] then `Ok ()
          else `Error (false, "bench reports diverge beyond the threshold")
    in
    Cmd.v
      (Cmd.info "diff"
         ~doc:
           "Compare two nettomo-bench/1 JSON reports: flag series fields \
            that swing more than the threshold (default 10%), exit non-zero \
            on any flag. Wall times and spans are reported but never gated; \
            --ignore excludes named series fields from the gate.")
      Term.(ret (const run $ file_a $ file_b $ threshold_arg $ ignore_arg))
  in
  Cmd.group
    (Cmd.info "bench"
       ~doc:"Utilities over nettomo-bench/1 JSON reports (see bench/main.ml).")
    [ diff_cmd ]

(* ------------------------------------------------------------------ *)
(* dot                                                                 *)

let dot_cmd =
  let run g monitors output =
    match List.find_opt (fun v -> not (Graph.mem_node g v)) monitors with
    | Some v -> `Error (false, Printf.sprintf "monitor %d is not a node of the graph" v)
    | None ->
        emit output (Dot.to_dot ~highlight:(Graph.NodeSet.of_list monitors) g);
        `Ok ()
  in
  Cmd.v
    (Cmd.info "dot" ~doc:"Export the topology as Graphviz DOT.")
    Term.(ret (const run $ graph_arg $ monitors_arg $ output_arg))

(* ------------------------------------------------------------------ *)

let () =
  (* The deterministic tick clock behind every golden test: timestamps
     (trace, log, wall_ms) become reproducible counter reads. *)
  (match Sys.getenv_opt "NETTOMO_FAKE_CLOCK" with
  | None | Some "" | Some "0" -> ()
  | Some _ -> Obs.Clock.use_fake ());
  let info =
    Cmd.info "nettomo" ~version:"1.0.0"
      ~doc:
        "Network tomography: identifiability of additive link metrics from \
         end-to-end path measurements, and minimum monitor placement (IMC'13)."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          ([ gen_cmd; stats_cmd; decompose_cmd; check_cmd ]
          @ query_cmds
          @ [
              routing_cmd; robust_cmd; experiment_cmd; serve_cmd; store_cmd;
              obs_cmd; bench_cmd; dot_cmd;
            ])))
