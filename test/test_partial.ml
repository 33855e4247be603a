(* Partial identifiability under an arbitrary monitor placement: a link
   is identifiable iff its unit vector lies in the row space of the
   measurement matrix over every simple monitor-to-monitor path. The
   served answer is [Coverage.classify]; the exact oracle is
   [Identifiability.identifiable_links_bruteforce]. *)

open Nettomo_graph
open Nettomo_core
module Coverage = Nettomo_coverage.Coverage
module Prng = Nettomo_util.Prng
module Basis = Nettomo_linalg.Basis
module Matrix = Nettomo_linalg.Matrix

let check = Alcotest.check
let ci = Alcotest.int
let cb = Alcotest.bool

let test_fig1_full_coverage () =
  check ci "rank equals links" 11
    (Basis.rank (Identifiability.measurement_basis Paper.fig1));
  let r = Coverage.classify Paper.fig1 in
  check cb "exact answer on a small graph" true
    (r.Coverage.mode <> Coverage.Sampled);
  check (Alcotest.float 0.0) "full coverage" 1.0 (Coverage.coverage r);
  check cb "nothing unidentifiable" true
    (Graph.EdgeSet.is_empty r.Coverage.unidentifiable)

let test_fig1_two_monitors_partial () =
  let net = Net.with_monitors Paper.fig1 [ 0; 1 ] in
  let r = Coverage.classify net in
  check cb "not full" true (Coverage.coverage r < 1.0);
  (* Exterior links must be in the unidentifiable set (Cor 4.1). *)
  Graph.EdgeSet.iter
    (fun e ->
      check cb "exterior unidentifiable" true
        (Graph.EdgeSet.mem e r.Coverage.unidentifiable))
    (Interior.exterior_links net)

let test_fig6_partial () =
  let r = Coverage.classify Paper.fig6 in
  check Fixtures.edgeset_testable "identifiable = interior links"
    (Interior.interior_links Paper.fig6)
    r.Coverage.identifiable

let test_requires_two_monitors () =
  let net = Net.with_monitors Paper.fig1 [ 0 ] in
  Alcotest.check_raises "one monitor rejected"
    (Invalid_argument "Coverage.classify: need at least two monitors")
    (fun () -> ignore (Coverage.classify net));
  check cb "the oracle measures no path" true
    (Graph.EdgeSet.is_empty (Identifiability.identifiable_links_bruteforce net))

(* The oracle's unit-row membership, checked against the column form of
   the same fact: [e_j] lies in the row space of [R] iff deleting
   column [j] drops the rank by one. [R] is the independent subset of
   every measurement row, so the ranks are those of the full matrix. *)
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
      let space = Measurement.space g in
      let basis = Basis.create (Measurement.n_links space) in
      let rows =
        List.concat_map
          (fun (m1, m2) ->
            List.filter_map
              (fun p ->
                let row = Measurement.incidence_row space p in
                if Basis.add basis row then Some row else None)
              (Paths.all_simple_paths g m1 m2))
          (Net.monitor_pairs net)
      in
      let drop j row =
        Array.of_list (List.filteri (fun i _ -> i <> j) (Array.to_list row))
      in
      let rank_without j =
        Matrix.rank (Matrix.of_rows (Array.of_list (List.map (drop j) rows)))
      in
      let by_columns =
        Array.to_list (Measurement.link_order space)
        |> List.filteri (fun j _ ->
               rows <> [] && rank_without j < List.length rows)
        |> Graph.EdgeSet.of_list
      in
      Graph.EdgeSet.equal by_columns
        (Identifiability.identifiable_links_bruteforce net))

let prop_sampled_is_sound =
  QCheck2.Test.make
    ~name:"sampled mode never claims an unidentifiable link (lower bound)"
    ~count:40
    QCheck2.Gen.(triple (int_bound 1_000_000) (int_range 5 9) (int_range 0 10))
    (fun (seed, n, extra) ->
      let rng = Prng.create seed in
      let g = Fixtures.random_connected rng n extra in
      let net = Net.create g ~monitors:[ 0; n - 1 ] in
      (* Force the sampled fallback even on a small graph. *)
      let sampled = Coverage.classify ~seed ~exact_node_limit:0 net in
      let truth = Identifiability.identifiable_links_bruteforce net in
      Graph.EdgeSet.subset sampled.Coverage.identifiable truth)

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
      let oracle monitors =
        Identifiability.identifiable_links_bruteforce (Net.create g ~monitors)
      in
      Graph.EdgeSet.subset (oracle base) (oracle (more :: base)))

(* Every ≤12-node fixture topology with a representative monitor set:
   small enough for the exact oracle, which the classifier must match
   by default and bound from above when the sampled fallback is forced
   with [~exact_node_limit:0]. *)
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
      let exact = Identifiability.identifiable_links_bruteforce net in
      check Fixtures.edgeset_testable (name ^ ": classify = oracle") exact
        (Coverage.classify net).Coverage.identifiable;
      let sampled = Coverage.classify ~seed:7 ~exact_node_limit:0 net in
      check cb (name ^ ": sampled never exceeds exact") true
        (Graph.EdgeSet.subset sampled.Coverage.identifiable exact))
    fixture_nets

let test_coverage_monotone_on_fixtures () =
  let coverage net = Coverage.coverage (Coverage.classify net) in
  List.iter
    (fun (name, net) ->
      let before = coverage net in
      let mons = Net.monitor_list net in
      List.iter
        (fun v ->
          if not (Net.is_monitor net v) then
            let after = coverage (Net.with_monitors net (v :: mons)) in
            check cb
              (Printf.sprintf "%s: coverage non-decreasing adding %d" name v)
              true (after >= before))
        (Graph.nodes (Net.graph net)))
    fixture_nets

let suite =
  [
    Alcotest.test_case "fig1 full coverage" `Quick test_fig1_full_coverage;
    Alcotest.test_case "fig1 partial with two monitors" `Quick
      test_fig1_two_monitors_partial;
    Alcotest.test_case "fig6 identifiable = interior" `Quick test_fig6_partial;
    Alcotest.test_case "requires two monitors" `Quick test_requires_two_monitors;
    QCheck_alcotest.to_alcotest prop_exact_matches_bruteforce;
    QCheck_alcotest.to_alcotest prop_sampled_is_sound;
    QCheck_alcotest.to_alcotest prop_monotone_in_monitors;
    Alcotest.test_case "sampled subset of exact on all fixtures" `Quick
      test_sampled_subset_of_exact_on_fixtures;
    Alcotest.test_case "coverage monotone under monitor addition" `Quick
      test_coverage_monotone_on_fixtures;
  ]
