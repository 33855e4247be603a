(* Differential suite for the dynamic engine: over many random delta
   streams, every session answer must equal the from-scratch
   computation on a shadow replica of the current network — and the
   serve protocol's batch fan-out must be identical for jobs 1 and 4. *)

open Nettomo_graph
open Nettomo_core
module Session = Nettomo_engine.Session
module Protocol = Nettomo_engine.Protocol
module Fingerprint = Nettomo_engine.Fingerprint
module Prng = Nettomo_util.Prng
module Pool = Nettomo_util.Pool
module Invariant = Nettomo_util.Invariant
module Jsonx = Nettomo_util.Jsonx
module Obs = Nettomo_obs.Obs
module NS = Graph.NodeSet

let check = Alcotest.check
let cb = Alcotest.bool

(* ------------------------------------------------------------------ *)
(* Shadow replica: the same delta semantics, replayed on plain values  *)

type shadow = { mutable g : Graph.t; mutable mon : NS.t }

let shadow_apply sh = function
  | Session.Add_node v -> sh.g <- Graph.add_node sh.g v
  | Session.Remove_node v ->
      sh.g <- Graph.remove_node sh.g v;
      sh.mon <- NS.remove v sh.mon
  | Session.Add_link (u, v) -> sh.g <- Graph.add_edge sh.g u v
  | Session.Remove_link (u, v) -> sh.g <- Graph.remove_edge sh.g u v
  | Session.Set_monitors ms -> sh.mon <- NS.of_list ms

let shadow_net sh = Net.create sh.g ~monitors:(NS.elements sh.mon)

(* A valid random delta for the current shadow state (invalid ops are
   exercised separately). *)
let rec random_delta ?(attempts = 12) rng sh =
  if attempts = 0 then Session.Add_node (Graph.fresh_node sh.g)
  else
    let retry () = random_delta ~attempts:(attempts - 1) rng sh in
    let nodes = Graph.node_array sh.g in
    let pick () = Prng.choose rng nodes in
    match Prng.int rng 100 with
    | r when r < 18 ->
        (* attach a brand-new node by a link *)
        Session.Add_link (pick (), Graph.fresh_node sh.g)
    | r when r < 40 ->
        let u = pick () and v = pick () in
        if u <> v && not (Graph.mem_edge sh.g u v) then Session.Add_link (u, v)
        else retry ()
    | r when r < 62 -> (
        match Graph.edges sh.g with
        | [] -> retry ()
        | es -> (
            match List.nth es (Prng.int rng (List.length es)) with
            | u, v -> Session.Remove_link (u, v)))
    | r when r < 74 ->
        if Array.length nodes > 5 then Session.Remove_node (pick ()) else retry ()
    | r when r < 82 -> Session.Add_node (Graph.fresh_node sh.g)
    | _ ->
        let n = Array.length nodes in
        let k = min n (2 + Prng.int rng 4) in
        Session.Set_monitors (Array.to_list (Prng.sample rng k nodes))

let same name eq got want =
  if not (Session.equal_result eq got want) then
    Alcotest.failf "%s: session answer diverges from scratch" name

(* One random delta stream, checking every answer against scratch on
   the shadow network; returns the session for its counters. *)
let run_stream ?store ~steps seed =
  let rng = Prng.create (0x5eed + (1000 * seed)) in
  let n = 8 + Prng.int rng 7 in
  let extra = Prng.int rng 8 in
  let g = Fixtures.random_connected rng n extra in
  let nodes = Graph.node_array g in
  let k = min (Array.length nodes) (3 + Prng.int rng 3) in
  let monitors = Array.to_list (Prng.sample rng k nodes) in
  let s = Session.create ~seed ?store (Net.create g ~monitors) in
  let sh = { g; mon = NS.of_list monitors } in
  for step = 1 to steps do
    let d = random_delta rng sh in
    (match Session.apply s d with
    | Ok () -> shadow_apply sh d
    | Error m ->
        Alcotest.failf "stream %d step %d: apply %a failed: %s" seed step
          Session.pp_delta d m);
    (* The session's network must mirror the shadow exactly. *)
    if not (Graph.equal (Net.graph (Session.net s)) sh.g) then
      Alcotest.failf "stream %d step %d: graphs diverge" seed step;
    if not (NS.equal (Net.monitors (Session.net s)) sh.mon) then
      Alcotest.failf "stream %d step %d: monitor sets diverge" seed step;
    let refnet = shadow_net sh in
    same "identifiable" Bool.equal (Session.identifiable s)
      (Session.Scratch.identifiable refnet);
    same "mmp" Session.equal_report (Session.mmp s) (Session.Scratch.mmp refnet);
    if Net.kappa (Session.net s) = 2 && Graph.n_nodes sh.g <= 11 then
      same "classify" Session.equal_classification (Session.classify s)
        (Session.Scratch.classify refnet);
    if step mod 8 = 0 then
      same "plan" Session.equal_plan (Session.plan s)
        (Session.Scratch.plan ~seed:(Session.seed s) refnet);
    if step mod 8 = 4 then
      same "solve" Session.equal_solution (Session.solve s)
        (Session.Scratch.solve ~seed:(Session.seed s) refnet);
    if step mod 2 = 1 then
      same "coverage" Session.equal_coverage (Session.coverage s)
        (Session.Scratch.coverage ~seed:(Session.seed s) refnet);
    if step mod 8 = 2 then
      same "augment" Session.equal_augment (Session.augment s ~k:2)
        (Session.Scratch.augment ~seed:(Session.seed s) ~k:2 refnet)
  done;
  s

let test_differential_streams () =
  (* ≥ 50 independent streams; even seeds additionally run under the
     NETTOMO_CHECK invariant layer so the engine's internal differential
     checks fire too. *)
  for seed = 0 to 54 do
    Invariant.with_enabled (seed mod 2 = 0) (fun () ->
        ignore (run_stream ~steps:22 seed))
  done

module Store = Nettomo_store.Store

(* The same streams twice over one store: a cold session publishes
   every answer it computes, then a fresh session replaying the stream
   must answer everything from the store. Both passes check each answer
   against scratch on the same states, so their answers are equal; the
   warm pass also runs the session's own differential on every store
   hit. *)
let test_warm_store_replay () =
  Fixtures.with_temp_dir "warm-replay" (fun dir ->
      let store = Store.open_dir dir in
      List.iter
        (fun seed ->
          let cold = run_stream ~store ~steps:22 seed in
          check cb "cold pass computes" true
            ((Session.stats cold).Session.full_computes > 0);
          let warm =
            Invariant.with_enabled true (fun () ->
                run_stream ~store ~steps:22 seed)
          in
          check Alcotest.int
            (Printf.sprintf "stream %d: warm pass computes nothing" seed)
            0 (Session.stats warm).Session.full_computes)
        [ 1; 2; 3; 4 ])

(* A partly warm store: the [mmp] answer and one family of block
   entries ([tri-*] or [sep-*]) deleted. A fresh session must answer as
   scratch does, split only the blocks that lost an entry, and
   republish exactly the deleted entries, byte for byte. The map's
   blocks: two K4s glued on the pair {2, 3} (6 nodes), a triangle on
   the cut vertex 5, a bridge, and a square (4 nodes, two pairs). *)
let test_partial_warm_store () =
  let g =
    List.fold_left
      (fun g (u, v) -> Graph.add_edge g u v)
      Fixtures.two_k4_by_pair
      [ (5, 6); (6, 7); (5, 7); (7, 8); (8, 9); (9, 10); (10, 11); (11, 8) ]
  in
  let net = Net.create g ~monitors:[ 0; 1; 4 ] in
  let splits f =
    Fun.protect
      ~finally:(fun () ->
        Obs.Trace.disable ();
        Obs.Trace.clear ())
      (fun () ->
        Obs.Trace.clear ();
        Obs.Trace.enable ();
        ignore (f ());
        Option.fold ~none:0 ~some:fst
          (List.assoc_opt "graph.triconnected.split" (Obs.Trace.summary ())))
  in
  List.iter
    (fun (family, lost) ->
      Fixtures.with_temp_dir ("partial-" ^ family) (fun dir ->
          let store = Store.open_dir dir in
          let entries () =
            List.map
              (fun (e : Store.entry) ->
                ( Filename.basename e.file,
                  In_channel.with_open_bin e.file In_channel.input_all ))
              (Store.entries dir)
          in
          let drop () =
            let doomed =
              List.filter
                (fun (name, _) ->
                  String.starts_with ~prefix:"mmp-" name
                  || String.starts_with ~prefix:(family ^ "-") name)
                (entries ())
            in
            List.iter (fun (name, _) -> Sys.remove (Filename.concat dir name)) doomed;
            List.length doomed
          in
          check cb "cold answer" true
            (Result.is_ok (Session.mmp (Session.create ~store net)));
          let full = entries () in
          let dropped = drop () in
          check Alcotest.int (family ^ ": the answer and its block entries")
            (1 + lost) dropped;
          let puts = (Store.stats store).Store.puts in
          same (family ^ ": mmp") Session.equal_report
            (Invariant.with_enabled true (fun () ->
                 Session.mmp (Session.create ~store net)))
            (Session.Scratch.mmp net);
          check Alcotest.int (family ^ ": republished what was deleted") dropped
            ((Store.stats store).Store.puts - puts);
          check
            Alcotest.(list (pair string string))
            (family ^ ": store byte-identical") full (entries ());
          (* Counted with the checks off: they decompose from scratch. *)
          ignore (drop ());
          check Alcotest.int (family ^ ": one split per block that lost an entry")
            lost
            (Invariant.with_enabled false (fun () ->
                 splits (fun () -> Session.mmp (Session.create ~store net))))))
    [ ("tri", 3); ("sep", 2) ]

(* ------------------------------------------------------------------ *)
(* Invalid deltas: error out and leave the session untouched           *)

let test_invalid_deltas () =
  let g = Fixtures.petersen in
  let s = Session.create (Net.create g ~monitors:[ 0; 1; 2 ]) in
  let fp0 = Session.fingerprint s in
  let existing =
    match Graph.edges g with
    | (u, v) :: _ -> (u, v)
    | [] -> Alcotest.fail "petersen has edges"
  in
  let expect_error name = function
    | Error _ -> ()
    | Ok () -> Alcotest.failf "%s: expected an error" name
  in
  expect_error "dup node" (Session.apply s (Session.Add_node 0));
  expect_error "missing node" (Session.apply s (Session.Remove_node 99));
  expect_error "self loop"
    (Session.apply s (Session.Add_link (3, 3)));
  expect_error "dup link"
    (Session.apply s (Session.Add_link (fst existing, snd existing)));
  expect_error "missing link" (Session.apply s (Session.Remove_link (0, 99)));
  expect_error "dup monitors"
    (Session.apply s (Session.Set_monitors [ 0; 0 ]));
  expect_error "foreign monitor"
    (Session.apply s (Session.Set_monitors [ 99 ]));
  check cb "fingerprint unchanged" true
    (Fingerprint.equal fp0 (Session.fingerprint s));
  check Fixtures.graph_testable "graph unchanged" g (Net.graph (Session.net s));
  check cb "no deltas counted" true ((Session.stats s).Session.deltas = 0)

(* ------------------------------------------------------------------ *)
(* Incremental machinery: memo hits and verdict carries fire           *)

let test_incremental_shortcuts () =
  Invariant.with_enabled true (fun () ->
      (* Petersen is 3-regular and 3-connected; with three monitors the
         κ ≥ 3 test runs for real the first time. *)
      let s = Session.create (Net.create Fixtures.petersen ~monitors:[ 0; 1; 2 ]) in
      let r0 = Session.identifiable s in
      check cb "computed" true (Result.is_ok r0);
      (* Revert cycle: remove a link and add it back — the revisited
         state must answer from the per-state memo. *)
      let u, v =
        match Graph.edges Fixtures.petersen with
        | e :: _ -> e
        | [] -> Alcotest.fail "petersen has edges"
      in
      (match Session.apply s (Session.Remove_link (u, v)) with
      | Ok () -> ()
      | Error m -> Alcotest.fail m);
      ignore (Session.identifiable s);
      (match Session.apply s (Session.Add_link (u, v)) with
      | Ok () -> ()
      | Error m -> Alcotest.fail m);
      let before = (Session.stats s).Session.memo_hits in
      let r1 = Session.identifiable s in
      check cb "same answer after revert" true
        (Session.equal_result Bool.equal r0 r1);
      check cb "memo hit on revisited state" true
        ((Session.stats s).Session.memo_hits > before);
      (* Monotone carry: a new link between existing nodes keeps a
         positive verdict without recomputing. *)
      let a =
        match
          List.find_opt
            (fun (a, b) -> not (Graph.mem_edge Fixtures.petersen a b))
            (List.concat_map
               (fun a -> List.map (fun b -> (a, b)) [ 5; 6; 7; 8; 9 ])
               [ 0; 1; 2; 3; 4 ])
        with
        | Some e -> e
        | None -> Alcotest.fail "petersen is not complete"
      in
      match (r0, Session.apply s (Session.Add_link (fst a, snd a))) with
      | Ok true, Ok () ->
          let carries = (Session.stats s).Session.verdict_carries in
          check cb "still identifiable" true
            (Session.equal_result Bool.equal (Session.identifiable s) (Ok true));
          check cb "verdict carried" true
            ((Session.stats s).Session.verdict_carries > carries)
      | Ok false, _ -> () (* petersen+monitors not identifiable: carry N/A *)
      | Error m, _ -> Alcotest.fail m
      | _, Error m -> Alcotest.fail m)

(* Revert cycle for MMP: the revisited structure answers from [mmp]'s
   memo, keyed by the structure fingerprint, so no decomposition piece
   is looked up or computed for it. *)
let test_mmp_memo_on_revisit () =
  Invariant.with_enabled true (fun () ->
      let g = Fixtures.two_k4_by_pair in
      let s = Session.create (Net.create g ~monitors:[ 0; 1; 4 ]) in
      let apply d =
        match Session.apply s d with Ok () -> () | Error m -> Alcotest.fail m
      in
      let r0 = Session.mmp s in
      check cb "computed" true (Result.is_ok r0);
      apply (Session.Remove_link (0, 1));
      check cb "removed state computed" true (Result.is_ok (Session.mmp s));
      apply (Session.Add_link (0, 1));
      let before = Session.stats s in
      check cb "blocks looked up so far" true
        (before.Session.block_hits + before.Session.block_misses > 0);
      let r1 = Session.mmp s in
      let after = Session.stats s in
      check cb "same answer after revert" true
        (Session.equal_result Session.equal_report r0 r1);
      check Alcotest.int "memo hit" (before.Session.memo_hits + 1)
        after.Session.memo_hits;
      check Alcotest.int "block hits unchanged" before.Session.block_hits
        after.Session.block_hits;
      check Alcotest.int "block misses unchanged" before.Session.block_misses
        after.Session.block_misses;
      check Alcotest.int "no full compute" before.Session.full_computes
        after.Session.full_computes)

(* ------------------------------------------------------------------ *)
(* Solve: memo on revisit, store round-trip across sessions, and the   *)
(* NETTOMO_CHECK differential vs the exact solver                      *)

let test_solve_memo_and_store () =
  Fixtures.with_temp_dir "solve-store" (fun dir ->
      Invariant.with_enabled true (fun () ->
          let net = Net.create Fixtures.petersen ~monitors:[ 0; 1; 2 ] in
          let store = Store.open_dir dir in
          let s = Session.create ~seed:11 ~store net in
          let r0 = Session.solve s in
          check cb "solve computes" true (Result.is_ok r0);
          check cb "solve equals scratch" true
            (Session.equal_result Session.equal_solution r0
               (Session.Scratch.solve ~seed:11 net));
          (match r0 with
          | Ok sol ->
              check Alcotest.int "one walk per link"
                (Graph.n_edges Fixtures.petersen)
                sol.Nettomo_measure.Solve.measurements
          | Error m -> Alcotest.fail m);
          (* Second ask on the same state: the per-state memo answers. *)
          let hits = (Session.stats s).Session.memo_hits in
          let r1 = Session.solve s in
          check cb "memoized answer identical" true
            (Session.equal_result Session.equal_solution r0 r1);
          check cb "memo hit" true ((Session.stats s).Session.memo_hits > hits);
          let puts_a = (Store.stats store).Store.puts in
          check cb "artifact published" true (puts_a > 0);
          (* Fresh session, same store: the answer rounds through the
             sol artifact bit-exactly, with no new publication. *)
          let s2 = Session.create ~seed:11 ~store net in
          let hits_a = (Store.stats store).Store.hits in
          let r2 = Session.solve s2 in
          check cb "warm answer identical" true
            (Session.equal_result Session.equal_solution r0 r2);
          check cb "store hit" true ((Store.stats store).Store.hits > hits_a);
          check Alcotest.int "nothing republished" puts_a
            (Store.stats store).Store.puts;
          (* A different seed draws different ground truth: distinct
             key, distinct answer. *)
          let s3 = Session.create ~seed:12 ~store net in
          match (r0, Session.solve s3) with
          | Ok a, Ok b ->
              check cb "seed changes the campaign" false
                (Session.equal_solution a b)
          | _ -> Alcotest.fail "solve failed under seed 12"))

(* A legal topology holding both [min_int] and [max_int]: minting the
   virtual monitors must not merge one into a real node, so every answer
   maps onto the answer for a relabelled copy. Monitors 1, 2, 3 sit on a
   K5 whose non-monitors {4, 5} are a 2-cut cutting off a K4 on
   {x, 6, 7, y}, so neither copy is identifiable. *)
let test_extreme_ids () =
  let topology x y =
    let clique nodes =
      List.concat_map
        (fun u -> List.filter_map (fun v -> if u < v then Some (u, v) else None) nodes)
        nodes
    in
    Graph.of_edges
      (clique [ 1; 2; 3; 4; 5 ] @ clique [ x; 6; 7; y ]
      @ [ (4, x); (4, 6); (5, 7); (5, y) ])
  in
  let relabel v = if v = min_int then 100 else if v = max_int then 200 else v in
  let answers g =
    let net = Net.create g ~monitors:[ 1; 2; 3 ] in
    let s = Session.create ~seed:7 net in
    Invariant.with_enabled true (fun () ->
        ( Identifiability.network_identifiable net,
          Session.identifiable s,
          Result.map
            (fun (r : Nettomo_coverage.Coverage.report) -> r.identifiable)
            (Session.coverage s) ))
  in
  let id_x, sid_x, cov_x = answers (topology min_int max_int)
  and id_p, sid_p, cov_p = answers (topology 100 200) in
  check cb "relabelled copy not identifiable" false id_p;
  check cb "network_identifiable" id_p id_x;
  check Alcotest.(result bool string) "Session.identifiable" sid_p sid_x;
  match (cov_x, cov_p) with
  | Ok x, Ok p ->
      check Fixtures.edgeset_testable "Session.coverage identifiable links" p
        (Graph.EdgeSet.map (fun (u, v) -> Graph.edge (relabel u) (relabel v)) x)
  | _ -> Alcotest.fail "coverage failed"

let test_solve_rejects () =
  (* Errors mirror the library and are memoized like answers. *)
  let disconnected =
    Net.create (Graph.of_edges [ (0, 1); (2, 3) ]) ~monitors:[ 0; 2 ]
  in
  let s = Session.create disconnected in
  (match Session.solve s with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "solve accepted a disconnected network");
  let one_monitor = Net.create (Graph.of_edges [ (0, 1); (1, 2) ]) ~monitors:[ 0 ] in
  match Session.solve (Session.create one_monitor) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "solve accepted a single-monitor network"

(* ------------------------------------------------------------------ *)
(* Protocol: batch fan-out identical across --jobs, and equal to the   *)
(* single-query session answers                                        *)

let fig1_edges = "0 4\n0 3\n3 4\n4 5\n3 5\n3 2\n5 2\n5 6\n2 1\n6 2\n6 1\n"

let scenario =
  [
    {|{"id":1,"op":"load","edges":"0 4\n0 3\n3 4\n4 5\n3 5\n3 2\n5 2\n5 6\n2 1\n6 2\n6 1","monitors":[0,1,2],"seed":11}|};
    {|{"id":2,"op":"batch","queries":["identifiable","mmp","plan","solve"]}|};
    {|{"id":3,"op":"delta","action":"remove_link","u":6,"v":2}|};
    {|{"id":4,"op":"batch","queries":["identifiable","mmp"]}|};
    {|{"id":5,"op":"delta","action":"add_link","u":6,"v":2}|};
    {|{"id":6,"op":"batch","queries":["identifiable","mmp","plan","classify"]}|};
    {|{"id":7,"op":"delta","action":"set_monitors","monitors":[0,1]}|};
    {|{"id":8,"op":"batch","queries":["identifiable","classify"]}|};
  ]

let run_scenario jobs =
  Pool.with_pool ~jobs (fun pool ->
      let server = Protocol.create ~pool ~emit_wall_ms:false () in
      List.map (Protocol.handle_line server) scenario)

let test_batch_jobs_deterministic () =
  let r1 = run_scenario 1 in
  let r4 = run_scenario 4 in
  check (Alcotest.list Alcotest.string) "jobs 1 = jobs 4" r1 r4

let test_batch_equals_single () =
  (* Each batch sub-result must carry exactly the payload the single
     query op returns (modulo the envelope's id field). *)
  let server = Protocol.create ~emit_wall_ms:false () in
  let load =
    Printf.sprintf
      {|{"id":1,"op":"load","edges":%s,"monitors":[0,1,2],"seed":11}|}
      (Jsonx.to_string (Jsonx.String fig1_edges))
  in
  let ok_response line =
    match Jsonx.parse (Protocol.handle_line server line) with
    | Ok v -> v
    | Error m -> Alcotest.failf "bad response json: %s" m
  in
  ignore (ok_response load);
  let batch =
    ok_response
      {|{"id":2,"op":"batch","queries":["identifiable","mmp","plan","solve"]}|}
  in
  let results =
    match Jsonx.member "results" batch with
    | Some (Jsonx.List items) -> items
    | _ -> Alcotest.fail "batch response lacks results"
  in
  let strip_id = function
    | Jsonx.Obj fields ->
        Jsonx.Obj (List.filter (fun (k, _) -> k <> "id") fields)
    | v -> v
  in
  let singles =
    List.map
      (fun op ->
        strip_id (ok_response (Printf.sprintf {|{"id":9,"op":%S}|} op)))
      [ "identifiable"; "mmp"; "plan"; "solve" ]
  in
  List.iter2
    (fun batch_item single ->
      check cb "batch item equals single response" true
        (Jsonx.equal batch_item single))
    results singles

(* Every session registers its counters in the process-wide metrics
   registry. Sessions that are created and dropped must leave no trace
   there beyond their share of each series' totals: 10,000 of them may
   not grow the live heap by a mebibyte (one handle list per session
   grew it by about 28 MiB), and the dump still shows each series once,
   carrying every dropped session's counts. *)
let test_dropped_sessions_release_metrics () =
  let net = Net.create (Graph.of_edges [ (0, 1); (1, 2); (0, 2) ]) ~monitors:[ 0; 1 ] in
  let live () =
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  let series_lines () =
    List.filter
      (String.starts_with ~prefix:"session_queries_total")
      (String.split_on_char '\n' (Nettomo_obs.Obs.Metrics.dump ()))
  in
  let queries () =
    match series_lines () with
    | [ line ] -> int_of_string (List.nth (String.split_on_char ' ' line) 1)
    | lines -> Alcotest.failf "%d session_queries_total lines" (List.length lines)
  in
  ignore (Session.identifiable (Session.create net));
  let q0 = queries () in
  let before = live () in
  for _ = 1 to 10_000 do
    ignore (Session.create net)
  done;
  let grown = (live () - before) * (Sys.word_size / 8) in
  check cb (Printf.sprintf "live heap grew by %d bytes, under 1 MiB" grown) true
    (grown < 1 lsl 20);
  ignore (Session.identifiable (Session.create net));
  ignore (Session.identifiable (Session.create net));
  check Alcotest.int "dropped sessions' queries still counted" (q0 + 2) (queries ())

let suite =
  [
    Alcotest.test_case "differential random delta streams" `Slow
      test_differential_streams;
    Alcotest.test_case "invalid deltas leave state untouched" `Quick
      test_invalid_deltas;
    Alcotest.test_case "memo hits and verdict carries" `Quick
      test_incremental_shortcuts;
    Alcotest.test_case "mmp memo on a revisited structure" `Quick
      test_mmp_memo_on_revisit;
    Alcotest.test_case "solve memo and store round-trip" `Quick
      test_solve_memo_and_store;
    Alcotest.test_case "solve rejects bad networks" `Quick test_solve_rejects;
    Alcotest.test_case "min_int/max_int node ids" `Quick
      test_extreme_ids;
    Alcotest.test_case "batch identical across jobs" `Quick
      test_batch_jobs_deterministic;
    Alcotest.test_case "batch equals single queries" `Quick
      test_batch_equals_single;
    Alcotest.test_case "warm store replay computes nothing" `Quick
      test_warm_store_replay;
    Alcotest.test_case "partly warm store splits only what it lost" `Quick
      test_partial_warm_store;
    Alcotest.test_case "dropped sessions release their metrics" `Quick
      test_dropped_sessions_release_metrics;
  ]
