(* The four workloads: the suite drives the engine through Session
   calls in its own process, one operation at a time, and checks a
   fixed sample of the answers against from-scratch oracles after the
   timed loop. *)

open Nettomo_graph
module Obs = Nettomo_obs.Obs
module Session = Nettomo_engine.Session
module Net = Nettomo_core.Net
module Mmp = Nettomo_core.Mmp
module Measurement = Nettomo_core.Measurement
module Coverage = Nettomo_coverage.Coverage
module Solve = Nettomo_measure.Solve
module Q = Nettomo_linalg.Rational
open Workload

(* The suite's spans around the calls it makes into the layers. *)
let query name f = Obs.Trace.span ("session.query." ^ name) f
let create ~seed net = Obs.Trace.span "session.create" (fun () -> Session.create ~seed net)

type tally = {
  mutable failed : int;
  mutable wrong : int;
  mutable checked : int;
  mutable links : int;
}

let tally () = { failed = 0; wrong = 0; checked = 0; links = 0 }

(* A sampled answer compared against its oracle: [ok] is the oracle's
   verdict, [errored] whether the operation was already counted failed. *)
let judge t ~errored ok =
  t.checked <- t.checked + 1;
  if not ok then begin
    t.wrong <- t.wrong + 1;
    if not errored then t.failed <- t.failed + 1
  end

let outcome t ~setup (loop : loop) ~extra ~layers =
  {
    setup;
    latencies = loop.times;
    busy_s = loop.busy;
    ops = loop.count;
    ops_per_s = float_of_int loop.count /. loop.busy;
    attempted = loop.count;
    failed = t.failed;
    wrong = t.wrong;
    checked = t.checked;
    mem_kb = loop.peak_kb;
    extra = extra @ [ ("host_speed", loop.speed) ];
    layers;
  }

(* Sessions keep every state's answers and decompositions (caches are
   never evicted), so a churn session's memory grows with the
   operations it has seen. The churn workloads start a fresh session on
   the current network every [epoch] operations (untimed), which keeps
   each run a sequence of statistically identical epochs: memory stays
   bounded and no metric depends on how many operations fit in the
   run. The peak resident set is read after 300 operations, a few
   epochs in. Access bursts are 8 rounds, so their epochs are shorter. *)
let epoch = 50
let access_epoch = 25

(* ------------------------------------------------------------------ *)
(* core-churn                                                          *)

(* Ebone under core link failures and recoveries (Inputs.core_delta).
   Every round rewrites a block, so the decomposition layers (split,
   cut-pair sweep, 3-connectivity) do most of the work. *)
let core_churn cfg hooks =
  let g = Inputs.ebone () in
  let monitors = Inputs.mmp_monitors g in
  let net0 = Net.create g ~monitors in
  let ask s =
    let ident = query "identifiable" (fun () -> Session.identifiable s) in
    let mmp = query "mmp" (fun () -> Session.mmp s) in
    let cov = query "coverage" (fun () -> Session.coverage s) in
    (ident, mmp, cov)
  in
  let fresh net =
    let s = create ~seed:cfg.seed net in
    ignore (ask s);
    s
  in
  let setup, s0 = setup_reps cfg (fun () -> fresh net0) in
  let s = ref s0 in
  let w = Inputs.world ~seed:cfg.seed g monitors in
  let t = tally () and samples = ref [] in
  let every = check_every cfg in
  let prepare i =
    if i > 0 && i mod epoch = 0 then s := fresh (Inputs.net w);
    let d = Inputs.core_delta w in
    (d, if i mod every = 0 then Some (Inputs.net w) else None)
  in
  let op (d, _) =
    let applied = Session.apply !s d in
    (applied, ask !s)
  in
  let post _ (_, snap) (applied, ((ident, mmp, cov) as answers)) =
    let errored = is_error applied || is_error ident || is_error mmp || is_error cov in
    if errored then t.failed <- t.failed + 1;
    Option.iter (fun net -> samples := (net, errored, answers) :: !samples) snap
  in
  let loop = timed_loop cfg hooks ~mem_after:300 ~prepare ~op ~post () in
  List.iter
    (fun (net, errored, (ident, mmp, cov)) ->
      judge t ~errored
        (Session.equal_result Bool.equal ident (Session.Scratch.identifiable net)
        && Session.equal_result Session.equal_report mmp (Session.Scratch.mmp net)
        && Session.equal_result Session.equal_coverage cov
             (Session.Scratch.coverage ~seed:cfg.seed net)))
    (List.rev !samples);
  outcome t ~setup loop ~extra:[] ~layers:[]

(* ------------------------------------------------------------------ *)
(* access-churn                                                        *)

(* One operation is a burst of rounds: single rounds are bimodal (memo
   hit or full compute), which makes their median jump between modes. *)
let burst = 8

let access_ask s =
  let ident = query "identifiable" (fun () -> Session.identifiable s) in
  let mmp = query "mmp" (fun () -> Session.mmp s) in
  let sol = query "solve" (fun () -> Session.solve s) in
  (ident, mmp, sol)

let access_round s d =
  let applied = Session.apply s d in
  (applied, access_ask s)

let round_errored (applied, (ident, mmp, sol)) =
  is_error applied || is_error ident || is_error mmp || is_error sol

(* Ebone access churn: the biconnected core is never touched, so
   memos, shortcuts and block-cache hits do the work. The control for
   decomposition changes. *)
let access_churn cfg hooks =
  let g = Inputs.ebone () in
  let monitors = Inputs.mmp_monitors g in
  let net0 = Net.create g ~monitors in
  let fresh net =
    let s = create ~seed:cfg.seed net in
    ignore (access_ask s);
    s
  in
  let setup, s0 = setup_reps cfg (fun () -> fresh net0) in
  let s = ref s0 in
  let w = Inputs.world ~seed:cfg.seed g monitors in
  let t = tally () and samples = ref [] in
  let every = check_every cfg in
  (* A checked burst checks its last round (every round in a smoke
     run): from-scratch MMP costs about as much as a whole burst. *)
  let prepare i =
    if i > 0 && i mod access_epoch = 0 then s := fresh (Inputs.net w);
    List.init burst (fun r ->
        let d = Inputs.access_delta w in
        let checked = i mod every = 0 && (cfg.smoke || r = burst - 1) in
        (d, if checked then Some (Inputs.net w) else None))
  in
  let op rounds = List.map (fun (d, _) -> access_round !s d) rounds in
  let post _ rounds answers =
    let errored = List.exists round_errored answers in
    if errored then t.failed <- t.failed + 1;
    List.iter2
      (fun (_, snap) a -> Option.iter (fun net -> samples := (net, errored, a) :: !samples) snap)
      rounds answers
  in
  let loop = timed_loop cfg hooks ~mem_after:300 ~prepare ~op ~post () in
  List.iter
    (fun (net, errored, (_, (ident, mmp, sol))) ->
      judge t ~errored
        (Session.equal_result Bool.equal ident (Session.Scratch.identifiable net)
        && Session.equal_result Session.equal_report mmp (Session.Scratch.mmp net)
        && Session.equal_result Session.equal_solution sol
             (Session.Scratch.solve ~seed:cfg.seed net)))
    (List.rev !samples);
  outcome t ~setup loop ~extra:[] ~layers:[]

(* ------------------------------------------------------------------ *)
(* coverage-plan                                                       *)

(* MMP-prefix monitor budgets on three ISP maps; each budget point is a
   fresh session plus its coverage report. Latencies and throughput are
   per budget curve (a map's points in one pass): single points are
   bimodal (a few ms where coverage collapses to 0.0 today, hundreds of
   ms elsewhere), so their median jumped between the two modes from run
   to run. Throughput is
   also counted in identified links, so a fix that makes the high
   budgets report real coverage does not read as a slowdown there. A
   run always covers whole passes over the budgets. *)
let coverage_plan cfg hooks =
  let maps =
    (if cfg.smoke then [ Inputs.ebone ] else [ Inputs.ebone; Inputs.exodus; Inputs.tiscali ])
    |> List.map (fun gen ->
           let g = gen () in
           (g, Inputs.mmp_monitors g))
  in
  let setup, placements =
    setup_reps cfg (fun () ->
        List.map
          (fun (g, monitors) ->
            let s = create ~seed:cfg.seed (Net.create g ~monitors) in
            query "mmp" (fun () -> Session.mmp s))
          maps)
  in
  let points =
    List.concat
      (List.mapi
         (fun m ((g, _), placement) ->
           let mmp =
             match placement with
             | Ok r -> Graph.NodeSet.elements r.Mmp.monitors
             | Error msg -> invalid_arg ("coverage-plan: MMP placement failed: " ^ msg)
           in
           let budgets = Inputs.budgets (List.length mmp) in
           let budgets =
             if cfg.smoke then
               List.filteri (fun i _ -> i <= 1 || i = List.length budgets - 1) budgets
             else budgets
           in
           List.map (fun k -> (m, Net.create g ~monitors:(Inputs.take k mmp))) budgets)
         (List.combine maps placements))
    |> Array.of_list
  in
  let n = Array.length points in
  let t = tally () in
  let every = check_every cfg in
  let curve = Array.make n None in
  let prepare i = (i mod n, points.(i mod n)) in
  let op (_, (_, net)) =
    let s = create ~seed:cfg.seed net in
    query "coverage" (fun () -> Session.coverage s)
  in
  let post i (j, (_, net)) r =
    let errored = is_error r in
    if errored then t.failed <- t.failed + 1;
    Result.iter (fun r -> t.links <- t.links + Graph.EdgeSet.cardinal r.Coverage.identifiable) r;
    if i < n then begin
      curve.(j) <- Result.to_option r;
      if i mod every = 0 then
        judge t ~errored
          (Session.equal_result Session.equal_coverage r
             (Session.Scratch.coverage ~seed:cfg.seed net))
    end
  in
  let loop = timed_loop cfg hooks ~unit:n ~mem_after:n ~prepare ~op ~post () in
  let cov j = Option.fold ~none:0. ~some:Coverage.coverage curve.(j) in
  let auc = List.fold_left ( +. ) 0. (List.init n cov) /. float_of_int n in
  let nonmonotone =
    List.length
      (List.filter
         (fun j -> j > 0 && fst points.(j) = fst points.(j - 1) && cov j < cov (j - 1))
         (List.init n Fun.id))
  in
  let sampled =
    Array.fold_left
      (fun acc r ->
        match r with
        | Some { Coverage.mode = Coverage.Sampled; _ } -> acc + 1
        | Some _ | None -> acc)
      0 curve
  in
  let sampled_frac = float_of_int sampled /. float_of_int n in
  let curves =
    List.fold_left
      (fun (i, acc) dt ->
        let same_curve = i mod n > 0 && fst points.(i mod n) = fst points.((i mod n) - 1) in
        match acc with
        | c :: rest when same_curve -> (i + 1, (c +. dt) :: rest)
        | _ -> (i + 1, dt :: acc))
      (0, []) loop.times
    |> snd |> List.rev
  in
  let o =
    outcome t ~setup loop
      ~extra:
        [
          ("identified_links_per_s", float_of_int t.links /. loop.busy);
          ("coverage_auc", auc);
          ("budget_points", float_of_int n);
        ]
      ~layers:
        [
          ("coverage.auc", auc);
          ("coverage.nonmonotone_points", float_of_int nonmonotone);
          ("coverage.sampled_frac", sampled_frac);
        ]
  in
  { o with latencies = curves; ops_per_s = float_of_int (List.length curves) /. loop.busy }

(* ------------------------------------------------------------------ *)
(* solve-scale                                                         *)

(* Three 10^4-node maps (up to 75k links), one fresh session and one
   simulated measurement campaign per operation, round-robin over the
   maps. Flattening, walk planning, measurement and substitution do the
   work; no decomposition or store is involved. A run always covers
   whole rounds of the three maps.

   Set-up, as in the other workloads, ends with the first answers in:
   a session and a solution per map. Session creation alone
   (fingerprinting the whole network) was more sensitive to the host's memory system than
   anything else the suite times: its time grew with the kernel's by a
   power of 1.1 where every other metric's grew by 0.7 to 0.85, so its
   median moved by 21% between two sets of runs of the same code. *)
let solve_scale cfg hooks =
  let nets =
    Array.map
      (fun gen ->
        let g = gen () in
        Net.create g ~monitors:(Inputs.take 2 (Graph.nodes g)))
      [| Inputs.isp10000; Inputs.ba10000; Inputs.er10000 |]
  in
  let setup, _ =
    setup_reps cfg (fun () ->
        Array.map
          (fun net -> query "solve" (fun () -> Session.solve (create ~seed:cfg.seed net)))
          nets)
  in
  let t = tally () in
  let every = check_every cfg in
  let prepare i = (cfg.seed + i, nets.(i mod Array.length nets)) in
  let op (seed, net) =
    let s = create ~seed net in
    query "solve" (fun () -> Session.solve s)
  in
  let post i (seed, net) r =
    let errored = is_error r in
    if errored then t.failed <- t.failed + 1;
    Result.iter (fun sol -> t.links <- t.links + Array.length sol.Solve.links) r;
    if i mod every = 0 then
      judge t ~errored
        (match r with
        | Error _ -> false
        | Ok sol ->
            let truth = Session.Scratch.truth_of ~seed net in
            sol.Solve.measurements = Graph.n_edges (Net.graph net)
            && Array.for_all2
                 (fun e x -> Float.equal x (Q.to_float (Measurement.weight truth e)))
                 sol.Solve.links sol.Solve.metrics)
  in
  let loop =
    timed_loop cfg hooks ~unit:(Array.length nets) ~mem_after:(10 * Array.length nets) ~prepare ~op
      ~post ()
  in
  outcome t ~setup loop
    ~extra:[ ("links_solved_per_s", float_of_int t.links /. loop.busy) ]
    ~layers:[]
