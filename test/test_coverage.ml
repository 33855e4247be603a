open Nettomo_graph
open Nettomo_core
module Coverage = Nettomo_coverage.Coverage
module Prng = Nettomo_util.Prng

let check = Alcotest.check
let cb = Alcotest.bool
let ci = Alcotest.int
let cf = Alcotest.float 0.0

let reason_of r e = (Graph.EdgeMap.find e r.Coverage.verdicts).Coverage.reason

let test_fig1_full_structural () =
  let r = Coverage.classify Paper.fig1 in
  check cb "structural mode" true (r.Coverage.mode = Coverage.Structural);
  check cf "full coverage" 1.0 (Coverage.coverage r);
  check cb "whole-network reason" true
    (reason_of r (Graph.edge 0 4) = Coverage.Whole_network)

let test_fig1_two_monitors_matches_oracle () =
  let net = Net.with_monitors Paper.fig1 [ 0; 1 ] in
  let r = Coverage.classify net in
  check Fixtures.edgeset_testable "identifiable set matches the exact oracle"
    (Identifiability.identifiable_links_bruteforce net)
    r.Coverage.identifiable

let test_monitor_link_reason () =
  (* Square with adjacent monitors: the direct link is the only
     identifiable one; the two interior degree-2 nodes kill the rest. *)
  let net = Net.create Fixtures.square ~monitors:[ 0; 1 ] in
  let r = Coverage.classify net in
  check cb "monitor link accepted" true
    (reason_of r (Graph.edge 0 1) = Coverage.Monitor_link);
  check cb "degree-2 path rejected" true
    (reason_of r (Graph.edge 1 2) = Coverage.Low_degree);
  check cf "one of four links" 0.25 (Coverage.coverage r)

let test_unmeasurable_block () =
  (* A K4 hanging off cut vertex 2 with both monitors in the triangle on
     the other side: the K4 carries no measurement path at all. Its
     interior nodes have degree 3, so only the block rule rejects it. *)
  let g =
    Graph.of_edges
      [
        (0, 1); (1, 2); (0, 2);
        (2, 3); (2, 4); (2, 5); (3, 4); (3, 5); (4, 5);
      ]
  in
  let net = Net.create g ~monitors:[ 0; 1 ] in
  let r = Coverage.classify net in
  check cb "dangling block unmeasurable" true
    (reason_of r (Graph.edge 3 4) = Coverage.Unmeasurable);
  check Fixtures.edgeset_testable "matches the exact oracle"
    (Identifiability.identifiable_links_bruteforce net)
    r.Coverage.identifiable

let test_identifiable_subnet () =
  let net = Net.create Fixtures.square ~monitors:[ 0; 1 ] in
  let r = Coverage.classify net in
  let sub = Coverage.identifiable_subnet r in
  check ci "one link survives" 1 (Graph.n_edges sub);
  check cb "it is the monitor link" true (Graph.mem_edge sub 0 1)

let test_requires_two_monitors () =
  Alcotest.check_raises "one monitor rejected"
    (Invalid_argument "Coverage.classify: need at least two monitors")
    (fun () ->
      ignore (Coverage.classify (Net.with_monitors Paper.fig1 [ 0 ])))

let test_unresolved_is_lower_bound () =
  (* Force the conservative path: rank_node_limit 0 skips the global
     fallback, so whatever the structure could not decide is reported
     unidentifiable and the mode flips to Sampled. *)
  let net = Net.with_monitors Paper.fig1 [ 0; 1 ] in
  let r = Coverage.classify ~exact_node_limit:0 ~rank_node_limit:0 net in
  check cb "sampled mode" true (r.Coverage.mode = Coverage.Sampled);
  let truth = Identifiability.identifiable_links_bruteforce net in
  check cb "still a sound lower bound" true
    (Graph.EdgeSet.subset r.Coverage.identifiable truth)

let prop_classify_matches_bruteforce =
  QCheck2.Test.make ~name:"classify = brute-force per-link set (small graphs)"
    ~count:60
    QCheck2.Gen.(triple (int_bound 1_000_000) (int_range 4 9) (int_range 0 10))
    (fun (seed, n, extra) ->
      let rng = Prng.create seed in
      let g = Fixtures.random_connected rng n extra in
      let kappa = 2 + Prng.int rng (min 3 (n - 1)) in
      let monitors = Array.to_list (Prng.sample rng kappa (Graph.node_array g)) in
      let net = Net.create g ~monitors in
      let r = Coverage.classify net in
      Graph.EdgeSet.equal r.Coverage.identifiable
        (Identifiability.identifiable_links_bruteforce net))

let prop_sampled_fallback_is_sound =
  QCheck2.Test.make
    ~name:"sampled fallback never claims an unidentifiable link" ~count:40
    QCheck2.Gen.(pair (int_bound 1_000_000) (int_range 5 9))
    (fun (seed, n) ->
      let rng = Prng.create seed in
      let g = Fixtures.random_connected rng n (n / 2) in
      let net = Net.create g ~monitors:[ 0; n - 1 ] in
      (* exact_node_limit 0 pushes every undecided link through the
         sampled independent-path basis. *)
      let r = Coverage.classify ~seed ~exact_node_limit:0 net in
      let truth = Identifiability.identifiable_links_bruteforce net in
      Graph.EdgeSet.subset r.Coverage.identifiable truth)

let prop_coverage_monotone_in_monitors =
  QCheck2.Test.make ~name:"classify coverage is monotone in the monitor set"
    ~count:40
    QCheck2.Gen.(triple (int_bound 1_000_000) (int_range 5 9) (int_range 0 8))
    (fun (seed, n, extra) ->
      let rng = Prng.create seed in
      let g = Fixtures.random_connected rng n extra in
      let base = [ 0; n - 1 ] in
      let more = 1 + Prng.int rng (n - 2) in
      QCheck2.assume (not (List.mem more base));
      let c1 = Coverage.coverage (Coverage.classify (Net.create g ~monitors:base)) in
      let c2 =
        Coverage.coverage (Coverage.classify (Net.create g ~monitors:(more :: base)))
      in
      c2 >= c1)

let test_dense_component_degrades () =
  (* K11 and K12 hold more simple paths between two monitors than the
     enumeration limit, so the exact rank fallback cannot run: the
     component falls back to the sampled basis instead of failing. *)
  List.iter
    (fun n ->
      let net = Net.create (Nettomo_topo.Gen.complete n) ~monitors:[ 0; 1 ] in
      let name = Printf.sprintf "K%d" n in
      match Nettomo_engine.Session.Scratch.coverage ~seed:0 net with
      | Error msg -> Alcotest.failf "%s: coverage failed: %s" name msg
      | Ok r ->
          check cb (name ^ " sampled mode") true
            (r.Coverage.mode = Coverage.Sampled);
          (* Theorem 3.2: with two monitors only the interior links
             and the direct monitor link can be identifiable. *)
          let allowed =
            Graph.EdgeSet.add (Graph.edge 0 1) (Interior.interior_links net)
          in
          check cb (name ^ " identifiable within interior + monitor link") true
            (Graph.EdgeSet.subset r.Coverage.identifiable allowed))
    [ 11; 12 ]

(* The rank fallback reads membership off the basis-only search; the
   oracle rebuilds a basis from the plan the same search finishes,
   whose paths (seeds included, rebuilt from their rows) must all be
   measurement paths. Both must give the same unit-row membership. *)
let solver_basis_matches_rebuild ?max_stall ?seeds ~seed net =
  let space = Measurement.space (Net.graph net) in
  let plan = Solver.independent_paths ~rng:(Prng.create seed) ?max_stall ?seeds net in
  let basis = Solver.basis ~rng:(Prng.create seed) ?max_stall ?seeds net in
  let rebuilt = Oracles.basis_of_plan space plan in
  List.for_all (Measurement.is_measurement_path net) plan.Solver.paths
  && Nettomo_linalg.Basis.rank basis = plan.Solver.rank
  && Nettomo_linalg.Basis.rank rebuilt = plan.Solver.rank
  && List.equal Bool.equal
       (Oracles.unit_membership space basis)
       (Oracles.unit_membership space rebuilt)

let prop_solver_basis_matches_rebuild =
  QCheck2.Test.make
    ~name:"solver basis = basis rebuilt from the plan (random nets > 12 nodes)"
    ~count:40
    QCheck2.Gen.(triple (int_bound 1_000_000) (int_range 13 30) (int_range 0 30))
    (fun (seed, n, extra) ->
      let rng = Prng.create seed in
      let g = Fixtures.random_connected rng n extra in
      let kappa = 2 + Prng.int rng 4 in
      let monitors = Array.to_list (Prng.sample rng kappa (Graph.node_array g)) in
      let net = Net.create g ~monitors in
      solver_basis_matches_rebuild ~seed net
      && solver_basis_matches_rebuild ~seed ~seeds:Nettomo_measure.Paths.simple_candidates net)

let test_solver_basis_isp_prefixes () =
  (* The coverage bench's maps under MMP-prefix budgets, searched the
     way the rank fallback searches large components: spanning-tree
     seeds, no random layer. *)
  List.iter
    (fun (name, seed) ->
      let spec = Option.get (Nettomo_topo.Isp.find name) in
      let g = Nettomo_topo.Isp.generate (Prng.create seed) spec in
      let mmp = Graph.NodeSet.elements (Mmp.place g) in
      let m = List.length mmp in
      List.iter
        (fun k ->
          let net = Net.create g ~monitors:(List.filteri (fun i _ -> i < k) mmp) in
          check cb
            (Printf.sprintf "%s with %d of %d MMP monitors" name k m)
            true
            (solver_basis_matches_rebuild ~max_stall:0
               ~seeds:Nettomo_measure.Paths.simple_candidates ~seed:0 net))
        [ m / 4; (3 * m) / 4 ])
    [ ("Ebone", 50); ("Exodus", 54); ("Tiscali", 56) ]

(* Coverage answers on the coverage bench's maps, pinned at a subset of
   their MMP-prefix budgets (k from 2 to m in steps of about m/12):
   mode, number of identifiable links, FNV-1a digest of those links, and
   the solver's exact-row and prefilter-reject counts for the report. A
   change to the path search's representation must not move one of
   them. *)
let test_isp_budget_answers_pinned () =
  let mode_name = function
    | Coverage.Structural -> "structural"
    | Coverage.Exact -> "exact"
    | Coverage.Sampled -> "sampled"
  in
  let render links =
    String.concat ";"
      (List.map (fun (u, v) -> Printf.sprintf "%d-%d" u v) (Graph.EdgeSet.elements links))
  in
  let count c = Nettomo_obs.Obs.Metrics.counter_value c in
  List.iter
    (fun (name, seed, points) ->
      let spec = Option.get (Nettomo_topo.Isp.find name) in
      let g = Nettomo_topo.Isp.generate (Prng.create seed) spec in
      let mmp = Graph.NodeSet.elements (Mmp.place g) in
      List.iter
        (fun (k, mode, size, digest, exact, rejects) ->
          let net = Net.create g ~monitors:(List.filteri (fun i _ -> i < k) mmp) in
          let exact0 = count Solver.exact_rows and rejects0 = count Solver.prefilter_rejects in
          let r = Coverage.classify net in
          let at what = Printf.sprintf "%s with %d MMP monitors: %s" name k what in
          check Alcotest.string (at "mode") mode (mode_name r.Coverage.mode);
          check ci (at "identifiable links") size (Graph.EdgeSet.cardinal r.Coverage.identifiable);
          check Alcotest.string (at "identifiable digest") digest
            Nettomo_util.Checksum.(to_hex (fnv64 (render r.Coverage.identifiable)));
          check ci (at "exact rows") exact (count Solver.exact_rows - exact0);
          check ci (at "prefilter rejects") rejects (count Solver.prefilter_rejects - rejects0))
        points)
    [
      ( "Ebone",
        50,
        [
          (8, "sampled", 191, "927e2a019d876008", 285, 922);
          (26, "sampled", 257, "f699033ff138bef1", 315, 1813);
          (50, "sampled", 329, "1e3d4c64863f6617", 353, 3113);
          (56, "sampled", 1, "38cb24f11110b389", 0, 0);
          (65, "structural", 381, "2b8061596f304c9a", 0, 0);
        ] );
      ( "Exodus",
        54,
        [
          (2, "sampled", 88, "856c1581356f7e75", 254, 66);
          (26, "sampled", 339, "fa03fac05609a5c5", 358, 2089);
          (58, "sampled", 0, "cbf29ce484222325", 0, 0);
          (95, "structural", 434, "e78f2cd397a852c8", 0, 0);
        ] );
      ( "Tiscali",
        56,
        [
          (2, "sampled", 18, "c7f8898a9a730bbd", 137, 15);
          (38, "sampled", 267, "a400b1c1f50d938d", 286, 2193);
          (74, "sampled", 0, "cbf29ce484222325", 0, 0);
          (142, "structural", 404, "0573b4d2ed22699e", 0, 0);
        ] );
    ]

let test_augment_zero_and_negative () =
  let net = Net.with_monitors Paper.fig1 [ 0; 1 ] in
  let plan = Coverage.augment ~k:0 net in
  check ci "k = 0 adds nothing" 0 (List.length plan.Coverage.added);
  check cb "before = after" true
    (plan.Coverage.coverage_before = plan.Coverage.coverage_after);
  Alcotest.check_raises "negative k rejected"
    (Invalid_argument "Coverage.augment: k must be non-negative") (fun () ->
      ignore (Coverage.augment ~k:(-1) net))

let test_augment_reaches_full () =
  let net = Net.with_monitors Paper.fig1 [ 0; 1 ] in
  let plan = Coverage.augment ~k:5 net in
  check cb "reaches full coverage" true plan.Coverage.full;
  check cf "coverage after is 1.0" 1.0 plan.Coverage.coverage_after;
  check cb "coverage improved" true
    (plan.Coverage.coverage_after > plan.Coverage.coverage_before);
  (* Check the plan is genuine: classify under the augmented set. *)
  let monitors = 0 :: 1 :: plan.Coverage.added in
  let r = Coverage.classify (Net.with_monitors net monitors) in
  check cf "plan verifies" 1.0 (Coverage.coverage r)

let test_augment_deterministic () =
  let net = Net.with_monitors Paper.fig1 [ 0; 2 ] in
  let p1 = Coverage.augment ~k:3 net in
  let p2 = Coverage.augment ~k:3 net in
  check cb "same added list" true (p1.Coverage.added = p2.Coverage.added);
  check cb "same coverage" true
    (p1.Coverage.coverage_after = p2.Coverage.coverage_after)

let test_augment_cold_start () =
  (* Fewer than two monitors: coverage_before is 0.0 by convention and
     the planner bootstraps the whole placement. *)
  let net = Net.create Fixtures.petersen ~monitors:[] in
  let plan = Coverage.augment ~k:10 net in
  check cf "cold start from zero" 0.0 plan.Coverage.coverage_before;
  check cb "reaches full" true plan.Coverage.full;
  check cf "full coverage" 1.0 plan.Coverage.coverage_after

let test_augment_vs_mmp () =
  (* Greedy augmentation from a cold pair must land within MMP + 2 on a
     preferential-attachment topology (the acceptance bound the bench
     checks on the real ISP maps). *)
  let rng = Prng.create 41 in
  let g = Nettomo_topo.Gen.barabasi_albert rng ~n:30 ~nmin:3 in
  let mmp = Graph.NodeSet.cardinal (Mmp.place g) in
  let net = Net.create g ~monitors:[ 0; 1 ] in
  let plan = Coverage.augment ~k:(Graph.n_nodes g) net in
  check cb "reaches full coverage" true plan.Coverage.full;
  check cb "within MMP + 2" true (2 + List.length plan.Coverage.added <= mmp + 2)

(* The flat classifier against the Set-based reference in [Oracles]:
   same mode, the same verdict and reason on every link, the same two
   link sets. *)
let same_report (a : Coverage.report) (b : Coverage.report) =
  a.Coverage.mode = b.Coverage.mode
  && Graph.EdgeMap.equal
       (fun (x : Coverage.verdict) (y : Coverage.verdict) ->
         Bool.equal x.identifiable y.identifiable && x.reason = y.reason)
       a.Coverage.verdicts b.Coverage.verdicts
  && Graph.EdgeSet.equal a.Coverage.identifiable b.Coverage.identifiable
  && Graph.EdgeSet.equal a.Coverage.unidentifiable b.Coverage.unidentifiable

(* A random net of 4–40 nodes for the differential test: 1–3 connected
   components, each grown from blocks of 2–7 nodes (a random tree plus
   random chords) glued at existing nodes, which makes those nodes cut
   vertices, with an occasional chord across blocks that merges them;
   then up to two isolated nodes. Node identifiers are spread over
   three times the node count and shuffled, so index order and
   discovery order differ from construction order. Monitors: about a
   third of the cut vertices, about a sixth of the other nodes, then
   random nodes up to two. *)
let random_block_net rng =
  let target = 4 + Prng.int rng 33 in
  let n_comps = 1 + Prng.int rng 3 in
  let edges = ref [] and n = ref 0 in
  let fresh () =
    incr n;
    !n - 1
  in
  let link u v = if u <> v then edges := (u, v) :: !edges in
  for c = 0 to n_comps - 1 do
    let budget = max 2 ((target - !n) / (n_comps - c)) in
    let members = ref [ fresh () ] and size = ref 1 in
    while !size < budget do
      let pick l = List.nth l (Prng.int rng (List.length l)) in
      let k = min (2 + Prng.int rng 6) (budget - !size + 1) in
      let block = Array.make k (pick !members) in
      for i = 1 to k - 1 do
        block.(i) <- fresh ();
        link block.(Prng.int rng i) block.(i)
      done;
      let chords = Prng.int rng (1 + (k * (k - 1) / 2)) in
      for _ = 1 to chords do
        link block.(Prng.int rng k) block.(Prng.int rng k)
      done;
      members := Array.to_list (Array.sub block 1 (k - 1)) @ !members;
      size := !size + k - 1;
      if Prng.int rng 8 = 0 then link (pick !members) (pick !members)
    done
  done;
  let isolated = List.init (Prng.int rng 3) (fun _ -> fresh ()) in
  let ids = Prng.sample rng !n (Array.init (3 * !n) Fun.id) in
  let g =
    Graph.of_edges
      ~nodes:(List.map (fun v -> ids.(v)) isolated)
      (List.map (fun (u, v) -> (ids.(u), ids.(v))) !edges)
  in
  let cuts = Biconnected.cut_vertices g in
  let monitors =
    List.filter
      (fun v ->
        if Graph.NodeSet.mem v cuts then Prng.int rng 3 = 0 else Prng.int rng 6 = 0)
      (Graph.nodes g)
  in
  let rec top_up ms =
    if List.length ms >= 2 then ms
    else
      let v = (Graph.node_array g).(Prng.int rng (Graph.n_nodes g)) in
      top_up (if List.mem v ms then ms else v :: ms)
  in
  Net.create g ~monitors:(top_up monitors)

let prop_classify_matches_reference =
  QCheck2.Test.make ~name:"classify = Set-based reference" ~count:300
    QCheck2.Gen.(pair (int_bound 1_000_000) (int_bound 1_000))
    (fun (gen_seed, seed) ->
      let net = random_block_net (Prng.create gen_seed) in
      (* Small limits make components past the rank bound, so links
         come out [Unresolved], and send small ones to the sampled
         layer. *)
      let exact_node_limit = Prng.int (Prng.create seed) 13
      and rank_node_limit = Prng.int (Prng.create (seed + 1)) 16 in
      same_report (Coverage.classify ~seed net) (Oracles.Coverage_ref.classify ~seed net)
      && same_report
           (Coverage.classify ~seed ~exact_node_limit ~rank_node_limit net)
           (Oracles.Coverage_ref.classify ~seed ~exact_node_limit ~rank_node_limit net)
      &&
      let g = Net.graph net in
      Coverage.Internal.structural_score net
      = Oracles.Coverage_ref.(structural_ok g (blocktree g) (Net.monitors net)))

(* Every budget point of the coverage bench's curves (MMP prefixes, k
   from 2 to m in steps of about m/12): the report and augment's
   structural score equal the reference's. *)
let test_isp_budgets_match_reference () =
  List.iter
    (fun (name, seed) ->
      let spec = Option.get (Nettomo_topo.Isp.find name) in
      let g = Nettomo_topo.Isp.generate (Prng.create seed) spec in
      let mmp = Graph.NodeSet.elements (Mmp.place g) in
      let m = List.length mmp in
      let step = max 1 ((m + 11) / 12) in
      let rec budgets k = if k >= m then [ m ] else k :: budgets (k + step) in
      let tree = Oracles.Coverage_ref.blocktree g in
      List.iter
        (fun k ->
          let net = Net.create g ~monitors:(List.filteri (fun i _ -> i < k) mmp) in
          let at what = Printf.sprintf "%s with %d of %d MMP monitors: %s" name k m what in
          check cb (at "report") true
            (same_report (Coverage.classify net) (Oracles.Coverage_ref.classify net));
          check ci (at "structural score")
            (Oracles.Coverage_ref.structural_ok g tree (Net.monitors net))
            (Coverage.Internal.structural_score net))
        (budgets 2))
    [ ("Ebone", 50); ("Exodus", 54); ("Tiscali", 56) ]

let suite =
  [
    Alcotest.test_case "fig1 full monitors: structural accept" `Quick
      test_fig1_full_structural;
    Alcotest.test_case "fig1 two monitors = Partial exact" `Quick
      test_fig1_two_monitors_matches_oracle;
    Alcotest.test_case "monitor-link and low-degree reasons" `Quick
      test_monitor_link_reason;
    Alcotest.test_case "unmeasurable dangling block" `Quick
      test_unmeasurable_block;
    Alcotest.test_case "identifiable sub-network" `Quick test_identifiable_subnet;
    Alcotest.test_case "requires two monitors" `Quick test_requires_two_monitors;
    Alcotest.test_case "unresolved links stay a lower bound" `Quick
      test_unresolved_is_lower_bound;
    QCheck_alcotest.to_alcotest prop_classify_matches_bruteforce;
    QCheck_alcotest.to_alcotest prop_sampled_fallback_is_sound;
    QCheck_alcotest.to_alcotest prop_coverage_monotone_in_monitors;
    Alcotest.test_case "augment: k = 0 and negative k" `Quick
      test_augment_zero_and_negative;
    Alcotest.test_case "augment reaches full coverage" `Quick
      test_augment_reaches_full;
    Alcotest.test_case "augment is deterministic" `Quick
      test_augment_deterministic;
    Alcotest.test_case "augment cold start" `Quick test_augment_cold_start;
    Alcotest.test_case "augment within MMP + 2" `Quick test_augment_vs_mmp;
    Alcotest.test_case "K11 and K12 degrade to sampled" `Quick
      test_dense_component_degrades;
    QCheck_alcotest.to_alcotest prop_solver_basis_matches_rebuild;
    Alcotest.test_case "solver basis = rebuild on ISP MMP prefixes" `Quick
      test_solver_basis_isp_prefixes;
    Alcotest.test_case "ISP budget answers pinned" `Quick
      test_isp_budget_answers_pinned;
    QCheck_alcotest.to_alcotest prop_classify_matches_reference;
    Alcotest.test_case "ISP budget points = Set-based reference" `Quick
      test_isp_budgets_match_reference;
  ]
