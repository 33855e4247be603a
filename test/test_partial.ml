open Nettomo_graph
open Nettomo_core
module Prng = Nettomo_util.Prng

let check = Alcotest.check
let ci = Alcotest.int
let cb = Alcotest.bool

let test_fig1_full_coverage () =
  let r = Partial.analyze Paper.fig1 in
  check cb "exact mode on a small graph" true (r.Partial.mode = Partial.Exact);
  check ci "rank equals links" 11 r.Partial.rank;
  check (Alcotest.float 0.0) "full coverage" 1.0 (Partial.coverage r);
  check cb "nothing unidentifiable" true
    (Graph.EdgeSet.is_empty r.Partial.unidentifiable)

let test_fig1_two_monitors_partial () =
  let net = Net.with_monitors Paper.fig1 [ 0; 1 ] in
  let r = Partial.analyze net in
  check cb "not full" true (Partial.coverage r < 1.0);
  (* Exterior links must be in the unidentifiable set (Cor 4.1). *)
  Graph.EdgeSet.iter
    (fun e ->
      check cb "exterior unidentifiable" true
        (Graph.EdgeSet.mem e r.Partial.unidentifiable))
    (Interior.exterior_links net)

let test_fig6_partial () =
  let r = Partial.analyze Paper.fig6 in
  check Fixtures.edgeset_testable "identifiable = interior links"
    (Interior.interior_links Paper.fig6)
    r.Partial.identifiable

let test_sampled_mode_on_larger () =
  let rng = Prng.create 41 in
  let g = Nettomo_topo.Gen.barabasi_albert rng ~n:40 ~nmin:3 in
  let net = Mmp.as_net g in
  let r = Partial.analyze ~rng net in
  check cb "sampled mode" true (r.Partial.mode = Partial.Sampled);
  (* MMP net is identifiable, so the sampled analysis reaches full
     coverage. *)
  check (Alcotest.float 0.0) "full coverage" 1.0 (Partial.coverage r);
  check ci "rank equals links" (Graph.n_edges g) r.Partial.rank

let test_requires_two_monitors () =
  Alcotest.check_raises "one monitor rejected"
    (Invalid_argument "Partial.analyze: need at least two monitors") (fun () ->
      ignore (Partial.analyze (Net.with_monitors Paper.fig1 [ 0 ])))

let prop_exact_matches_bruteforce =
  QCheck2.Test.make ~name:"exact partial analysis = brute-force per-link set"
    ~count:60
    QCheck2.Gen.(triple (int_bound 1_000_000) (int_range 4 9) (int_range 0 10))
    (fun (seed, n, extra) ->
      let rng = Prng.create seed in
      let g = Fixtures.random_connected rng n extra in
      let kappa = 2 + Prng.int rng (min 3 (n - 1)) in
      let monitors = Array.to_list (Prng.sample rng kappa (Graph.node_array g)) in
      let net = Net.create g ~monitors in
      let r = Partial.analyze net in
      Graph.EdgeSet.equal r.Partial.identifiable
        (Identifiability.identifiable_links_bruteforce net))

let prop_sampled_is_sound =
  QCheck2.Test.make
    ~name:"sampled mode never claims an unidentifiable link (lower bound)"
    ~count:40
    QCheck2.Gen.(triple (int_bound 1_000_000) (int_range 5 9) (int_range 0 10))
    (fun (seed, n, extra) ->
      let rng = Prng.create seed in
      let g = Fixtures.random_connected rng n extra in
      let monitors = [ 0; n - 1 ] in
      let net = Net.create g ~monitors in
      (* Force sampled mode even on a small graph. *)
      let sampled = Partial.analyze ~rng ~exact_node_limit:0 net in
      let truth = Identifiability.identifiable_links_bruteforce net in
      Graph.EdgeSet.subset sampled.Partial.identifiable truth)

let prop_monotone_in_monitors =
  QCheck2.Test.make
    ~name:"adding a monitor never loses identifiable links (exact mode)"
    ~count:40
    QCheck2.Gen.(triple (int_bound 1_000_000) (int_range 5 9) (int_range 0 10))
    (fun (seed, n, extra) ->
      let rng = Prng.create seed in
      let g = Fixtures.random_connected rng n extra in
      let base = [ 0; n - 1 ] in
      let more = 1 + Prng.int rng (n - 2) in
      QCheck2.assume (not (List.mem more base));
      let r1 = Partial.analyze (Net.create g ~monitors:base) in
      let r2 = Partial.analyze (Net.create g ~monitors:(more :: base)) in
      Graph.EdgeSet.subset r1.Partial.identifiable r2.Partial.identifiable)

(* Every ≤12-node fixture topology with a representative monitor set:
   small enough that [Partial.analyze] defaults to Exact mode, so the
   sampled run (forced with [~exact_node_limit:0]) has an exact oracle
   to be compared against. *)
let fixture_nets =
  [
    ("fig1", Paper.fig1);
    ("fig1/2mon", Net.with_monitors Paper.fig1 [ 0; 1 ]);
    ("fig6", Paper.fig6);
    ("triangle", Net.create Fixtures.triangle ~monitors:[ 0; 1 ]);
    ("square", Net.create Fixtures.square ~monitors:[ 0; 2 ]);
    ("k4", Net.create Fixtures.k4 ~monitors:[ 0; 1; 2 ]);
    ("k5", Net.create Fixtures.k5 ~monitors:[ 0; 4 ]);
    ("bowtie", Net.create Fixtures.bowtie ~monitors:[ 0; 4 ]);
    ("two_k4", Net.create Fixtures.two_k4_by_pair ~monitors:[ 0; 5 ]);
    ("wheel5", Net.create Fixtures.wheel5 ~monitors:[ 1; 3 ]);
    ("petersen", Net.create Fixtures.petersen ~monitors:[ 0; 6; 7 ]);
    ("path6", Net.create (Fixtures.path_graph 6) ~monitors:[ 0; 5 ]);
    ("cycle8", Net.create (Fixtures.cycle_graph 8) ~monitors:[ 0; 4 ]);
  ]

let test_sampled_subset_of_exact_on_fixtures () =
  List.iter
    (fun (name, net) ->
      let exact = Partial.analyze net in
      check cb (name ^ ": oracle is exact") true
        (exact.Partial.mode = Partial.Exact);
      let rng = Prng.create 7 in
      let sampled = Partial.analyze ~rng ~exact_node_limit:0 net in
      check cb (name ^ ": sampled never exceeds exact") true
        (Graph.EdgeSet.subset sampled.Partial.identifiable
           exact.Partial.identifiable))
    fixture_nets

let test_coverage_monotone_on_fixtures () =
  List.iter
    (fun (name, net) ->
      let before = Partial.coverage (Partial.analyze net) in
      let g = Net.graph net in
      let mons = Net.monitor_list net in
      List.iter
        (fun v ->
          if not (Net.is_monitor net v) then
            let after =
              Partial.coverage (Partial.analyze (Net.with_monitors net (v :: mons)))
            in
            check cb
              (Printf.sprintf "%s: coverage non-decreasing adding %d" name v)
              true (after >= before))
        (Graph.nodes g))
    fixture_nets

(* Sampled mode reads membership off the solver's own basis; the
   oracle rebuilds a basis from the plan the same seed yields. *)
let prop_sampled_matches_plan_rebuild =
  QCheck2.Test.make
    ~name:"sampled mode = membership in the basis rebuilt from the plan"
    ~count:40
    QCheck2.Gen.(triple (int_bound 1_000_000) (int_range 13 30) (int_range 0 30))
    (fun (seed, n, extra) ->
      let rng = Prng.create seed in
      let g = Fixtures.random_connected rng n extra in
      let kappa = 2 + Prng.int rng 4 in
      let monitors = Array.to_list (Prng.sample rng kappa (Graph.node_array g)) in
      let net = Net.create g ~monitors in
      let r = Partial.analyze ~rng:(Prng.create seed) net in
      let space = Measurement.space g in
      let plan = Solver.independent_paths ~rng:(Prng.create seed) net in
      let rebuilt = Oracles.basis_of_plan space plan in
      let expected =
        List.fold_left2
          (fun acc e inside -> if inside then Graph.EdgeSet.add e acc else acc)
          Graph.EdgeSet.empty
          (Array.to_list (Measurement.link_order space))
          (Oracles.unit_membership space rebuilt)
      in
      r.Partial.mode = Partial.Sampled
      && r.Partial.rank = Nettomo_linalg.Basis.rank rebuilt
      && Graph.EdgeSet.equal r.Partial.identifiable expected
      && Graph.EdgeSet.equal r.Partial.unidentifiable
           (Graph.EdgeSet.diff (Graph.edge_set g) expected))

let suite =
  [
    Alcotest.test_case "fig1 full coverage" `Quick test_fig1_full_coverage;
    Alcotest.test_case "fig1 partial with two monitors" `Quick
      test_fig1_two_monitors_partial;
    Alcotest.test_case "fig6 identifiable = interior" `Quick test_fig6_partial;
    Alcotest.test_case "sampled mode on larger graph" `Quick
      test_sampled_mode_on_larger;
    Alcotest.test_case "requires two monitors" `Quick test_requires_two_monitors;
    QCheck_alcotest.to_alcotest prop_exact_matches_bruteforce;
    QCheck_alcotest.to_alcotest prop_sampled_is_sound;
    QCheck_alcotest.to_alcotest prop_monotone_in_monitors;
    Alcotest.test_case "sampled subset of exact on all fixtures" `Quick
      test_sampled_subset_of_exact_on_fixtures;
    Alcotest.test_case "coverage monotone under monitor addition" `Quick
      test_coverage_monotone_on_fixtures;
    QCheck_alcotest.to_alcotest prop_sampled_matches_plan_rebuild;
  ]
