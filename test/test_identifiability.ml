open Nettomo_graph
open Nettomo_core

let check = Alcotest.check
let cb = Alcotest.bool
let ns = Graph.NodeSet.of_list

let fig1_net =
  Net.create Fixtures.fig1 ~monitors:[ Fixtures.fig1_m1; Fixtures.fig1_m2; Fixtures.fig1_m3 ]

let fig6_net = Net.create Fixtures.fig6 ~monitors:[ Fixtures.fig6_m1; Fixtures.fig6_m2 ]

(* --- Theorem 3.3 / Section 2.3 ------------------------------------- *)

let test_fig1_identifiable () =
  check cb "topological test" true (Identifiability.network_identifiable fig1_net);
  check cb "ground truth" true
    (Identifiability.network_identifiable_bruteforce fig1_net)

let test_fig1_two_monitors_unidentifiable () =
  (* Removing monitor m3 (Section 2.3): the remaining paths can no longer
     identify the network. *)
  let net = Net.with_monitors fig1_net [ 0; 1 ] in
  check cb "Theorem 3.1" false (Identifiability.network_identifiable net);
  check cb "ground truth agrees" false
    (Identifiability.network_identifiable_bruteforce net)

let test_single_link_two_monitors () =
  let g = Graph.of_edges [ (0, 1) ] in
  let net = Net.create g ~monitors:[ 0; 1 ] in
  check cb "single link identifiable" true (Identifiability.network_identifiable net);
  check cb "ground truth" true (Identifiability.network_identifiable_bruteforce net)

let test_kappa_below_two () =
  let net = Net.create Fixtures.fig1 ~monitors:[ 0 ] in
  check cb "one monitor never identifies" false
    (Identifiability.network_identifiable net)

(* --- Theorem 3.2 on Fig. 6 ------------------------------------------ *)

let test_fig6_interior_identifiable () =
  check cb "conditions hold" true (Identifiability.interior_identifiable_two fig6_net);
  check (Alcotest.list (Alcotest.of_pp Identifiability.pp_failure)) "no failures" []
    (Identifiability.interior_two_failures fig6_net);
  (* Ground truth: exactly the interior links are identifiable. *)
  let identifiable = Identifiability.identifiable_links_bruteforce fig6_net in
  check Fixtures.edgeset_testable "identifiable = interior"
    (Interior.interior_links fig6_net)
    identifiable

let test_corollary_4_1 () =
  (* No exterior link of Fig. 6 is identifiable with two monitors. *)
  let identifiable = Identifiability.identifiable_links_bruteforce fig6_net in
  Graph.EdgeSet.iter
    (fun e ->
      check cb
        (Format.asprintf "exterior %a unidentifiable" Graph.pp_edge e)
        false
        (Graph.EdgeSet.mem e identifiable))
    (Interior.exterior_links fig6_net)

(* --- Condition violations ------------------------------------------- *)

let test_interior_bridge_fails () =
  (* Fig. 4(a): an interior bridge between the monitors. *)
  let g = Graph.of_edges [ (0, 1); (1, 2); (2, 3) ] in
  let net = Net.create g ~monitors:[ 0; 3 ] in
  check cb "bridge breaks Condition 1" false
    (Identifiability.interior_identifiable_two net);
  check cb "a Condition1 witness is reported" true
    (List.exists
       (function Identifiability.Condition1 _ -> true | _ -> false)
       (Identifiability.interior_two_failures net))

let test_condition2_violation () =
  (* Two interior triangles hanging off the monitors through a 2-cut:
     G + m1m2 is not 3-vertex-connected. Build: m1=0, m2=7, and an
     interior "square of squares" with a 2-vertex cut {3, 4}. *)
  let g =
    Graph.of_edges
      [
        (0, 1); (0, 2);             (* m1's links *)
        (1, 2); (1, 3); (2, 3);     (* triangle 1-2-3 *)
        (3, 4);                     (* narrow waist *)
        (4, 5); (4, 6); (5, 6);     (* triangle 4-5-6 *)
        (5, 7); (6, 7);             (* m2's links *)
      ]
  in
  let net = Net.create g ~monitors:[ 0; 7 ] in
  check cb "waist breaks identifiability" false
    (Identifiability.interior_identifiable_two net);
  (* Ground truth agrees that some interior link is unidentifiable. *)
  let identifiable = Identifiability.identifiable_links_bruteforce net in
  check cb "some interior link unidentifiable" true
    (not (Graph.EdgeSet.subset (Interior.interior_links net) identifiable))

let test_no_interior_links_vacuous () =
  (* A 4-cycle with alternating monitors has no interior links. *)
  let net = Net.create Fixtures.square ~monitors:[ 0; 2 ] in
  check cb "vacuously identifiable interior" true
    (Identifiability.interior_identifiable_two net)

let test_direct_link_allowed () =
  let g = Graph.add_edge Fixtures.fig6 0 6 in
  let net = Net.create g ~monitors:[ 0; 6 ] in
  check cb "direct m1m2 link tolerated" true
    (Identifiability.interior_identifiable_two net)

let test_invalid_inputs () =
  let disconnected = Graph.of_edges [ (0, 1); (2, 3) ] in
  check cb "disconnected rejected" true
    (try
       ignore (Identifiability.network_identifiable (Net.create disconnected ~monitors:[ 0; 1; 2 ]));
       false
     with Invalid_argument _ -> true);
  check cb "edgeless rejected" true
    (try
       ignore
         (Identifiability.network_identifiable
            (Net.create (Graph.add_node Graph.empty 0) ~monitors:[ 0 ]));
       false
     with Invalid_argument _ -> true)

(* --- The key validation: theory matches exact rank ------------------ *)

let monitored_random seed n extra kappa =
  let rng = Nettomo_util.Prng.create seed in
  let g = Fixtures.random_connected rng n extra in
  let monitors =
    Array.to_list (Nettomo_util.Prng.sample rng kappa (Graph.node_array g))
  in
  Net.create g ~monitors

let test_differential_serial_vs_parallel () =
  (* Differential suite: on ~50 random small graphs, the Theorem 3.3
     topological test must agree with the exact-rank ground truth, and
     running either test on a Domain pool must give verdicts identical
     to the serial sweep (the test functions are pure, so parallelism
     must be unobservable). *)
  let rng = Nettomo_util.Prng.create 31415 in
  let nets =
    Array.init 50 (fun _ ->
        let n = 4 + Nettomo_util.Prng.int rng 6 in
        let g = Fixtures.random_connected rng n (Nettomo_util.Prng.int rng 10) in
        let kappa = 2 + Nettomo_util.Prng.int rng (min 3 (n - 1)) in
        let monitors =
          Array.to_list
            (Nettomo_util.Prng.sample rng kappa (Graph.node_array g))
        in
        Net.create g ~monitors)
  in
  let serial_theory = Array.map Identifiability.network_identifiable nets in
  let serial_truth =
    Array.map
      (fun net -> Identifiability.network_identifiable_bruteforce net)
      nets
  in
  check (Alcotest.array cb) "Theorem 3.3 test = exact rank (serial)"
    serial_truth serial_theory;
  Nettomo_util.Pool.with_pool ~jobs:3 (fun pool ->
      let par_theory =
        Nettomo_util.Pool.map pool Identifiability.network_identifiable nets
      in
      let par_truth =
        Nettomo_util.Pool.map pool
          (fun net -> Identifiability.network_identifiable_bruteforce net)
          nets
      in
      check (Alcotest.array cb) "parallel topological test = serial"
        serial_theory par_theory;
      check (Alcotest.array cb) "parallel exact rank = serial" serial_truth
        par_truth)

let prop_theorem_3_3_matches_bruteforce =
  QCheck2.Test.make
    ~name:"Theorem 3.3 (κ≥3) matches exact-rank ground truth" ~count:120
    QCheck2.Gen.(
      quad (int_bound 1_000_000) (int_range 4 9) (int_range 0 10) (int_range 3 4))
    (fun (seed, n, extra, kappa) ->
      QCheck2.assume (kappa <= n);
      let net = monitored_random seed n extra kappa in
      Identifiability.network_identifiable net
      = Identifiability.network_identifiable_bruteforce net)

(* The flat Theorems 3.1/3.3 against the persistent reference, on nets
   of every κ from 1 up, half relabelled onto sparse identifiers, and
   on random nets under their MMP placement (identifiable). *)
let prop_flat_matches_persistent_reference =
  QCheck2.Test.make ~name:"network_identifiable = persistent reference (sparse ids)"
    ~count:600
    QCheck2.Gen.(
      quad (int_bound 1_000_000) (int_range 2 16) (int_range 0 30) (int_range 0 6))
    (fun (seed, n, extra, kappa) ->
      let rng = Nettomo_util.Prng.create seed in
      let net =
        if kappa = 0 then Fixtures.mmp_net rng n extra
        else
          let g = Fixtures.random_connected rng n extra in
          let g = if Nettomo_util.Prng.bool rng then Fixtures.relabel (Fixtures.sparse_ids rng n) g else g in
          Net.create g
            ~monitors:(Array.to_list (Nettomo_util.Prng.sample rng (Int.min kappa n) (Graph.node_array g)))
      in
      let flat = Identifiability.network_identifiable net in
      flat = Oracles.Identifiable_ref.network_identifiable net
      && (kappa > 0 || flat)
      && Identifiability.extended_three_connected net
         = (Net.kappa net >= 3 && Oracles.Identifiable_ref.network_identifiable net))

let prop_theorem_3_2_matches_bruteforce =
  QCheck2.Test.make
    ~name:"Theorem 3.2 (interior, κ=2) matches exact-rank ground truth"
    ~count:120
    QCheck2.Gen.(triple (int_bound 1_000_000) (int_range 4 9) (int_range 0 10))
    (fun (seed, n, extra) ->
      let net = monitored_random seed n extra 2 in
      let interior = Interior.interior_links net in
      let identifiable = Identifiability.identifiable_links_bruteforce net in
      Identifiability.interior_identifiable_two net
      = Graph.EdgeSet.subset interior identifiable)

let prop_corollary_4_1_random =
  QCheck2.Test.make
    ~name:"Corollary 4.1: exterior links unidentifiable with 2 monitors"
    ~count:120
    QCheck2.Gen.(triple (int_bound 1_000_000) (int_range 3 9) (int_range 0 10))
    (fun (seed, n, extra) ->
      let net = monitored_random seed n extra 2 in
      QCheck2.assume (Graph.n_edges (Net.graph net) >= 2);
      let identifiable = Identifiability.identifiable_links_bruteforce net in
      let m1, m2 =
        match Net.monitor_list net with [ a; b ] -> (a, b) | _ -> assert false
      in
      Graph.EdgeSet.for_all
        (fun e ->
          Graph.edge_equal e (Graph.edge m1 m2) || not (Graph.EdgeSet.mem e identifiable))
        (Interior.exterior_links net))

let prop_theorem_3_1_random =
  QCheck2.Test.make
    ~name:"Theorem 3.1: two monitors never identify n ≥ 2 links" ~count:120
    QCheck2.Gen.(triple (int_bound 1_000_000) (int_range 3 9) (int_range 0 10))
    (fun (seed, n, extra) ->
      let net = monitored_random seed n extra 2 in
      QCheck2.assume (Graph.n_edges (Net.graph net) >= 2);
      (not (Identifiability.network_identifiable net))
      && not (Identifiability.network_identifiable_bruteforce net))

(* The exact basis takes each path as its ascending link columns and
   stops building rows once full; the reference offers every path of a
   monitor pair as a dense rational row, pair by pair, and stops
   between pairs once full. Same rank and the same identifiable links. *)
let prop_measurement_basis_matches_dense_reference =
  QCheck2.Test.make ~name:"measurement basis = dense per-pair reference"
    ~count:150
    QCheck2.Gen.(
      quad (int_bound 1_000_000) (int_range 2 9) (int_range 0 10) (int_range 2 4))
    (fun (seed, n, extra, kappa) ->
      QCheck2.assume (kappa <= n);
      let net = monitored_random seed n extra kappa in
      let g = Net.graph net in
      let space = Measurement.space g in
      let module R = Oracles.Basis_ref in
      let reference = R.create (Measurement.n_links space) in
      (try
         List.iter
           (fun (m1, m2) ->
             List.iter
               (fun p -> ignore (R.add reference (Measurement.incidence_row space p)))
               (Paths.all_simple_paths g m1 m2);
             if R.rank reference = Measurement.n_links space then raise Exit)
           (Net.monitor_pairs net)
       with Exit -> ());
      let basis = Identifiability.measurement_basis net in
      Nettomo_linalg.Basis.rank basis = R.rank reference
      && List.for_all
           (fun j -> Nettomo_linalg.Basis.mem_unit basis j = R.mem_unit reference j)
           (List.init (Measurement.n_links space) Fun.id))

let test_fig6_sanity = ignore (ns [])

let suite =
  [
    Alcotest.test_case "fig1: identifiable with 3 monitors" `Quick
      test_fig1_identifiable;
    Alcotest.test_case "fig1: unidentifiable with 2 monitors" `Quick
      test_fig1_two_monitors_unidentifiable;
    Alcotest.test_case "single link, two monitors" `Quick test_single_link_two_monitors;
    Alcotest.test_case "fewer than two monitors" `Quick test_kappa_below_two;
    Alcotest.test_case "fig6: interior identifiable (Thm 3.2)" `Quick
      test_fig6_interior_identifiable;
    Alcotest.test_case "fig6: Corollary 4.1" `Quick test_corollary_4_1;
    Alcotest.test_case "interior bridge fails Condition 1" `Quick
      test_interior_bridge_fails;
    Alcotest.test_case "2-cut waist fails Condition 2" `Quick test_condition2_violation;
    Alcotest.test_case "no interior links is vacuous" `Quick
      test_no_interior_links_vacuous;
    Alcotest.test_case "direct monitor link allowed" `Quick test_direct_link_allowed;
    Alcotest.test_case "invalid inputs rejected" `Quick test_invalid_inputs;
    Alcotest.test_case "differential: serial = parallel on 50 random graphs"
      `Quick test_differential_serial_vs_parallel;
    QCheck_alcotest.to_alcotest prop_theorem_3_3_matches_bruteforce;
    QCheck_alcotest.to_alcotest prop_flat_matches_persistent_reference;
    QCheck_alcotest.to_alcotest prop_theorem_3_2_matches_bruteforce;
    QCheck_alcotest.to_alcotest prop_corollary_4_1_random;
    QCheck_alcotest.to_alcotest prop_theorem_3_1_random;
    QCheck_alcotest.to_alcotest prop_measurement_basis_matches_dense_reference;
  ]
