open Nettomo_graph
open Nettomo_core
open Nettomo_linalg
module Prng = Nettomo_util.Prng

let check = Alcotest.check
let ci = Alcotest.int
let cb = Alcotest.bool

let fig1_net =
  Net.create Fixtures.fig1 ~monitors:[ Fixtures.fig1_m1; Fixtures.fig1_m2; Fixtures.fig1_m3 ]

let weights_equal recovered truth =
  List.for_all
    (fun (e, x) -> Rational.equal x (Measurement.weight truth e))
    recovered

let test_plan_full_rank_fig1 () =
  let plan = Solver.independent_paths ~rng:(Prng.create 1) fig1_net in
  check ci "eleven independent paths" 11 plan.Solver.rank;
  check cb "full rank" true (Solver.full_rank fig1_net plan);
  List.iter
    (fun p ->
      check cb "every plan path is a measurement path" true
        (Measurement.is_measurement_path fig1_net p))
    plan.Solver.paths

let test_recover_fig1 () =
  let rng = Prng.create 2 in
  let truth = Measurement.random_weights ~lo:1 ~hi:50 rng Fixtures.fig1 in
  match Solver.recover ~rng fig1_net truth with
  | Some recovered ->
      check ci "one metric per link" 11 (List.length recovered);
      check cb "metrics recovered exactly" true (weights_equal recovered truth)
  | None -> Alcotest.fail "fig1 is identifiable"

let test_recover_unidentifiable () =
  let net = Net.with_monitors fig1_net [ 0; 1 ] in
  let rng = Prng.create 3 in
  let truth = Measurement.random_weights rng Fixtures.fig1 in
  check cb "refuses on two monitors" true (Solver.recover ~rng net truth = None)

let test_solve_validates () =
  let plan = Solver.independent_paths ~rng:(Prng.create 4) fig1_net in
  Alcotest.check_raises "wrong measurement length"
    (Invalid_argument "Solver.solve: measurement length mismatch") (fun () ->
      ignore (Solver.solve plan [| Rational.one |]))

let test_solve_partial_plan_rejected () =
  let net = Net.with_monitors fig1_net [ 0; 1 ] in
  let plan = Solver.independent_paths ~rng:(Prng.create 5) net in
  check cb "plan is not full rank" false (Solver.full_rank net plan);
  Alcotest.check_raises "partial plan rejected"
    (Invalid_argument "Solver.solve: plan is not full rank") (fun () ->
      ignore
        (Solver.solve plan
           (Array.make (Graph.n_edges Fixtures.fig1) Rational.one)))

let test_rank_matches_bruteforce_rank () =
  (* The plan's maximal rank equals the rank over all simple paths. *)
  let net = Net.with_monitors fig1_net [ 0; 1 ] in
  let plan = Solver.independent_paths ~rng:(Prng.create 6) net in
  let basis = Identifiability.measurement_basis net in
  check ci "maximal plan rank" (Basis.rank basis) plan.Solver.rank

let prop_recover_roundtrip_mmp =
  QCheck2.Test.make
    ~name:"recover round-trips exactly on MMP-monitored random graphs"
    ~count:60
    QCheck2.Gen.(triple (int_bound 1_000_000) (int_range 4 12) (int_range 0 12))
    (fun (seed, n, extra) ->
      let rng = Prng.create seed in
      let g = Fixtures.random_connected rng n extra in
      let monitors = Graph.NodeSet.elements (Nettomo_core.Mmp.place g) in
      let net = Net.create g ~monitors in
      let truth = Measurement.random_weights ~lo:1 ~hi:1000 rng g in
      match Solver.recover ~rng net truth with
      | Some recovered ->
          List.length recovered = Graph.n_edges g && weights_equal recovered truth
      | None -> false)

let prop_plan_paths_independent =
  QCheck2.Test.make ~name:"plan paths are linearly independent" ~count:60
    QCheck2.Gen.(triple (int_bound 1_000_000) (int_range 4 12) (int_range 0 12))
    (fun (seed, n, extra) ->
      let rng = Prng.create seed in
      let g = Fixtures.random_connected rng n extra in
      let kappa = min (Graph.n_nodes g) 3 in
      let monitors = Array.to_list (Prng.sample rng kappa (Graph.node_array g)) in
      let net = Net.create g ~monitors in
      let plan = Solver.independent_paths ~rng net in
      plan.Solver.paths = []
      || Matrix.rank (Measurement.matrix plan.Solver.space plan.Solver.paths)
         = List.length plan.Solver.paths)

let test_enumeration_fallback_on_small () =
  (* Force the randomized layer to do nothing (max_stall = 0): the
     exhaustive fallback must still reach full rank on a small graph. *)
  let plan = Solver.independent_paths ~rng:(Prng.create 8) ~max_stall:0 fig1_net in
  check cb "fallback reaches full rank" true (Solver.full_rank fig1_net plan)

let test_single_link_network () =
  let g = Graph.of_edges [ (0, 1) ] in
  let net = Net.create g ~monitors:[ 0; 1 ] in
  let plan = Solver.independent_paths ~rng:(Prng.create 9) net in
  check ci "one path" 1 plan.Solver.rank;
  check cb "full" true (Solver.full_rank net plan)

let test_no_monitor_pairs () =
  let net = Net.create Fixtures.fig1 ~monitors:[ 0 ] in
  let plan = Solver.independent_paths ~rng:(Prng.create 10) net in
  check ci "no paths without a pair" 0 plan.Solver.rank

(* Layer 1 offers one row per reachable monitor pair, read off one flat
   breadth-first tree per source. The reference takes
   [Traversal.shortest_path] per pair and keeps each path whose
   incidence row extends an exact basis. With no seeds, no random layer
   and more than 16 nodes (no enumeration) the plan is layer 1 alone:
   it must hold the same node paths in the same order, and every
   reachable pair must have cost one offer to the basis. Some nets
   get a second component, so some pairs are unreachable. *)
let prop_layer1_matches_shortest_paths =
  QCheck2.Test.make ~name:"layer-1 rows and plan = shortest_path per pair" ~count:60
    QCheck2.Gen.(quad (int_bound 1_000_000) (int_range 17 35) (int_range 0 30) bool)
    (fun (seed, n, extra, split) ->
      let rng = Prng.create seed in
      let g = Fixtures.random_connected rng n extra in
      let g =
        if split then
          Graph.of_edges (Graph.edges g @ [ (100, 101); (101, 102); (100, 102) ])
        else g
      in
      let kappa = 2 + Prng.int rng 5 in
      let monitors = Array.to_list (Prng.sample rng kappa (Graph.node_array g)) in
      let net = Net.create g ~monitors in
      let counts () =
        Nettomo_obs.Obs.Metrics.(
          counter_value Solver.exact_rows + counter_value Solver.prefilter_rejects)
      in
      let before = counts () in
      let plan = Solver.independent_paths ~rng:(Prng.create seed) ~max_stall:0 net in
      let tested = counts () - before in
      let space = Measurement.space g in
      let basis = Basis.create (Measurement.n_links space) in
      let reachable, kept =
        List.fold_left
          (fun (reachable, kept) (m1, m2) ->
            match Traversal.shortest_path g m1 m2 with
            | None -> (reachable, kept)
            | Some p ->
                ( reachable + 1,
                  if Basis.add basis (Measurement.incidence_row space p) then p :: kept
                  else kept ))
          (0, []) (Net.monitor_pairs net)
      in
      tested = reachable
      && List.equal (List.equal Int.equal) plan.Solver.paths (List.rev kept)
      && plan.Solver.rank = Basis.rank basis)

(* The plan, rank and unit-row membership the search gives, plain and
   from the coverage fallback's seeds. *)
let answers ?max_stall ~seed net =
  let plan = Solver.independent_paths ~rng:(Prng.create seed) ?max_stall net in
  let basis =
    Fixtures.solver_basis ~rng:(Prng.create seed) ~max_stall:0
      ~seeds:Nettomo_measure.Paths.simple_candidates net
  in
  ( plan.Solver.paths,
    plan.Solver.rank,
    List.init (Graph.n_edges (Net.graph net)) (Zbasis.mem_unit basis) )

let same_answers (paths, rank, mem) (paths', rank', mem') =
  List.equal (List.equal Int.equal) paths paths'
  && rank = rank'
  && List.equal Bool.equal mem mem'

(* With the overflow bound forced to 1 the basis switches to rationals
   part-way through most searches; what the search answers must not
   move. *)
let prop_forced_switch_same_answers =
  QCheck2.Test.make ~name:"forced switch keeps every answer" ~count:30
    QCheck2.Gen.(triple (int_bound 1_000_000) (int_range 17 30) (int_range 0 30))
    (fun (seed, n, extra) ->
      let rng = Prng.create seed in
      let g = Fixtures.random_connected rng n extra in
      let kappa = 2 + Prng.int rng 4 in
      let monitors = Array.to_list (Prng.sample rng kappa (Graph.node_array g)) in
      let net = Net.create g ~monitors in
      same_answers (answers ~seed net)
        (Zbasis.Testing.with_bound 1 (fun () -> answers ~seed net)))

(* Ebone under a quarter of its MMP placement, without the random
   layer: both searches stay on integers under the default bound and
   switch under a bound of 1, each switch counted once, and give the
   same answers either way. *)
let test_forced_switch_counted () =
  let net = Fixtures.isp_prefix "Ebone" 50 (fun m -> m / 4) in
  let count () = Nettomo_obs.Obs.Metrics.counter_value Solver.rational_fallbacks in
  let c0 = count () in
  let plain = answers ~max_stall:0 ~seed:3 net in
  check ci "no switch under the default bound" c0 (count ());
  let forced = Zbasis.Testing.with_bound 1 (fun () -> answers ~max_stall:0 ~seed:3 net) in
  check ci "both searches switched" (c0 + 2) (count ());
  check cb "same plan, rank and membership" true (same_answers plain forced)

let suite =
  [
    Alcotest.test_case "fig1 plan reaches full rank" `Quick test_plan_full_rank_fig1;
    Alcotest.test_case "fig1 metrics recovered exactly" `Quick test_recover_fig1;
    Alcotest.test_case "recover refuses unidentifiable" `Quick
      test_recover_unidentifiable;
    Alcotest.test_case "solve validates input" `Quick test_solve_validates;
    Alcotest.test_case "partial plans rejected" `Quick test_solve_partial_plan_rejected;
    Alcotest.test_case "plan rank is maximal" `Quick test_rank_matches_bruteforce_rank;
    Alcotest.test_case "enumeration fallback" `Quick test_enumeration_fallback_on_small;
    Alcotest.test_case "single-link network" `Quick test_single_link_network;
    Alcotest.test_case "no monitor pairs" `Quick test_no_monitor_pairs;
    QCheck_alcotest.to_alcotest prop_recover_roundtrip_mmp;
    QCheck_alcotest.to_alcotest prop_plan_paths_independent;
    QCheck_alcotest.to_alcotest prop_layer1_matches_shortest_paths;
    QCheck_alcotest.to_alcotest prop_forced_switch_same_answers;
    Alcotest.test_case "forced switch counted" `Quick test_forced_switch_counted;
  ]
