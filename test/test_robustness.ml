open Nettomo_graph
open Nettomo_core
module Prng = Nettomo_util.Prng

let check = Alcotest.check
let ci = Alcotest.int
let cb = Alcotest.bool

(* K5 with monitors 0,1,2: removing any link leaves K5-e, still
   3-vertex-connected — every failure survives. *)
let k5_net = Net.create Fixtures.k5 ~monitors:[ 0; 1; 2 ]

let test_k5_survives_links () =
  Graph.iter_edges
    (fun e ->
      check cb
        (Format.asprintf "link %a" Graph.pp_edge e)
        true
        (Robustness.survives_link_failure k5_net e))
    Fixtures.k5

let test_k5_node_failures () =
  (* Losing a non-monitor: K4 remains with 3 monitors — fine. Losing a
     monitor: K4 remains with 2 monitors — unidentifiable (Thm 3.1). *)
  check cb "non-monitor failure survives" true
    (Robustness.survives_node_failure k5_net 4);
  check cb "monitor failure fatal" false
    (Robustness.survives_node_failure k5_net 0)

let test_fig1_report () =
  let r = Robustness.analyze Paper.fig1 in
  check ci "total links" 11 r.Robustness.total_links;
  check ci "total nodes" 7 r.Robustness.total_nodes;
  (* Fig. 1 is minimally instrumented: every failure breaks something. *)
  check cb "fractions within [0,1]" true
    (Robustness.fraction_critical_links r >= 0.0
    && Robustness.fraction_critical_links r <= 1.0
    && Robustness.fraction_critical_nodes r >= 0.0
    && Robustness.fraction_critical_nodes r <= 1.0)

let test_disconnection_handled () =
  (* A two-component survivor where one component keeps only one
     monitor is not identifiable. Barbell: K4 - bridge - K4 with
     monitors spread 3+1. *)
  let g =
    Graph.of_edges
      [
        (0, 1); (0, 2); (0, 3); (1, 2); (1, 3); (2, 3);
        (3, 4);
        (4, 5); (4, 6); (4, 7); (5, 6); (5, 7); (6, 7);
      ]
  in
  let net = Net.create g ~monitors:[ 0; 1; 2; 5 ] in
  check cb "bridge failure fatal (right side keeps 1 monitor)" false
    (Robustness.survives_link_failure net (3, 4))

let test_invalid_inputs () =
  check cb "absent link" true
    (try
       ignore (Robustness.survives_link_failure k5_net (0, 99));
       false
     with Invalid_argument _ -> true);
  check cb "absent node" true
    (try
       ignore (Robustness.survives_node_failure k5_net 99);
       false
     with Invalid_argument _ -> true);
  (* No failure can break identifiability the intact network never had
     (two monitors on K5, Theorem 3.1; one on Fig. 1). *)
  List.iter
    (fun (name, net) ->
      check cb name true
        (try
           ignore (Robustness.analyze net);
           false
         with Invalid_argument _ -> true))
    [
      ( "unidentifiable placement (K5, 2 monitors)",
        Net.create Fixtures.k5 ~monitors:[ 0; 1 ] );
      ( "unidentifiable placement (Fig. 1, 1 monitor)",
        Net.with_monitors Paper.fig1 [ 0 ] );
    ]

(* Oracle agreement: survives_link_failure must equal re-running the
   decomposed identifiability check by hand via brute force on small
   graphs. *)
let prop_link_failure_matches_bruteforce =
  QCheck2.Test.make
    ~name:"link-failure verdict matches exact-rank ground truth" ~count:40
    QCheck2.Gen.(triple (int_bound 1_000_000) (int_range 4 8) (int_range 2 8))
    (fun (seed, n, extra) ->
      let rng = Prng.create seed in
      let g = Fixtures.random_connected rng n extra in
      let monitors = Graph.NodeSet.elements (Mmp.place g) in
      let net = Net.create g ~monitors in
      Graph.fold_edges
        (fun (u, v) acc ->
          acc
          &&
          let g' = Graph.remove_edge g u v in
          let expected =
            Traversal.components g'
            |> List.for_all (fun comp ->
                   let sub = Graph.induced g' comp in
                   Graph.n_edges sub = 0
                   ||
                   let ms =
                     Graph.NodeSet.elements
                       (Graph.NodeSet.inter comp (Net.monitors net))
                   in
                   List.length ms >= 2
                   && Identifiability.network_identifiable_bruteforce
                        (Net.create sub ~monitors:ms))
          in
          Robustness.survives_link_failure net (u, v) = expected)
        g true)

(* Redundant monitors help: with every node a monitor, any single link
   failure survives (each remaining link measured by its own 1-hop
   path)… provided the survivor's components keep ≥ 2 nodes. *)
let prop_full_instrumentation_survives_links =
  QCheck2.Test.make ~name:"all-monitors placements survive link failures"
    ~count:60
    QCheck2.Gen.(triple (int_bound 1_000_000) (int_range 3 12) (int_range 2 12))
    (fun (seed, n, extra) ->
      let rng = Prng.create seed in
      let g = Fixtures.random_connected rng n extra in
      let net = Net.create g ~monitors:(Graph.nodes g) in
      Graph.fold_edges
        (fun e acc -> acc && Robustness.survives_link_failure net e)
        g true)

let suite =
  [
    Alcotest.test_case "K5 survives any link failure" `Quick test_k5_survives_links;
    Alcotest.test_case "K5 node failures" `Quick test_k5_node_failures;
    Alcotest.test_case "fig1 report" `Quick test_fig1_report;
    Alcotest.test_case "disconnecting failures handled" `Quick
      test_disconnection_handled;
    Alcotest.test_case "invalid inputs" `Quick test_invalid_inputs;
    QCheck_alcotest.to_alcotest prop_link_failure_matches_bruteforce;
    QCheck_alcotest.to_alcotest prop_full_instrumentation_survives_links;
  ]
