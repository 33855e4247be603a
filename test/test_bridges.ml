open Nettomo_graph

let check = Alcotest.check
let cb = Alcotest.bool
let es = Graph.EdgeSet.of_list

(* Brute-force oracle: an edge is a bridge iff removing it increases the
   number of connected components. *)
let bridges_oracle g =
  Graph.fold_edges
    (fun (u, v) acc ->
      if
        List.length (Traversal.components (Graph.remove_edge g u v))
        > List.length (Traversal.components g)
      then Graph.EdgeSet.add (u, v) acc
      else acc)
    g Graph.EdgeSet.empty

let test_path_all_bridges () =
  check Fixtures.edgeset_testable "every edge of a path is a bridge"
    (es [ (0, 1); (1, 2); (2, 3) ])
    (Bridges.bridges (Fixtures.path_graph 4))

let test_cycle_no_bridges () =
  check Fixtures.edgeset_testable "cycle has no bridges" Graph.EdgeSet.empty
    (Bridges.bridges (Fixtures.cycle_graph 5))

let test_bowtie_no_bridges () =
  check Fixtures.edgeset_testable "bowtie has no bridges" Graph.EdgeSet.empty
    (Bridges.bridges Fixtures.bowtie)

let test_barbell_bridge () =
  (* Two triangles joined by the single edge (2, 3). *)
  let g =
    Graph.of_edges [ (0, 1); (1, 2); (0, 2); (3, 4); (4, 5); (3, 5); (2, 3) ]
  in
  check Fixtures.edgeset_testable "the joining edge is the only bridge"
    (es [ (2, 3) ])
    (Bridges.bridges g)

let test_disconnected () =
  let g = Graph.of_edges [ (0, 1); (2, 3); (3, 4); (2, 4) ] in
  check Fixtures.edgeset_testable "bridge found in each component"
    (es [ (0, 1) ])
    (Bridges.bridges g)

let test_two_edge_connected () =
  check cb "cycle" true (Bridges.is_two_edge_connected (Fixtures.cycle_graph 4));
  check cb "k4" true (Bridges.is_two_edge_connected Fixtures.k4);
  check cb "path" false (Bridges.is_two_edge_connected (Fixtures.path_graph 3));
  check cb "bowtie (no bridge but connected)" true
    (Bridges.is_two_edge_connected Fixtures.bowtie);
  check cb "disconnected" false
    (Bridges.is_two_edge_connected (Graph.of_edges [ (0, 1); (2, 3) ]));
  check cb "single node" false
    (Bridges.is_two_edge_connected (Graph.add_node Graph.empty 0));
  check cb "single edge" false
    (Bridges.is_two_edge_connected (Graph.of_edges [ (0, 1) ]))

let test_without_edge () =
  let g = Fixtures.cycle_graph 4 in
  (* A cycle minus one edge is a path: connected but not 2-edge-connected. *)
  check cb "cycle minus edge" false
    (Bridges.is_two_edge_connected_without g (0, 1));
  (* K4 minus any edge is still 2-edge-connected. *)
  check cb "k4 minus edge" true
    (Bridges.is_two_edge_connected_without Fixtures.k4 (0, 1));
  Alcotest.check_raises "absent edge rejected"
    (Invalid_argument "Bridges.is_two_edge_connected_without: edge not in graph")
    (fun () -> ignore (Bridges.is_two_edge_connected_without g (0, 2)))

let test_without_matches_removal () =
  let g = Fixtures.fig1 in
  Graph.iter_edges
    (fun (u, v) ->
      check cb
        (Printf.sprintf "G-l for (%d,%d)" u v)
        (Bridges.is_two_edge_connected (Graph.remove_edge g u v))
        (Bridges.is_two_edge_connected_without g (u, v)))
    g

let prop_bridges_match_oracle =
  QCheck2.Test.make ~name:"bridges match brute-force oracle" ~count:300
    QCheck2.Gen.(triple (int_bound 100_000) (int_range 2 25) (int_range 0 15))
    (fun (seed, n, extra) ->
      let rng = Nettomo_util.Prng.create seed in
      let g = Fixtures.random_connected rng n extra in
      Graph.EdgeSet.equal (Bridges.bridges g) (bridges_oracle g))

let prop_2ec_matches_flow_oracle =
  QCheck2.Test.make ~name:"2-edge-connectivity matches max-flow oracle"
    ~count:150
    QCheck2.Gen.(triple (int_bound 100_000) (int_range 2 18) (int_range 0 12))
    (fun (seed, n, extra) ->
      let rng = Nettomo_util.Prng.create seed in
      let g = Fixtures.random_connected rng n extra in
      Bridges.is_two_edge_connected g = Connectivity.is_k_edge_connected g 2)

let suite =
  [
    Alcotest.test_case "path: all edges are bridges" `Quick test_path_all_bridges;
    Alcotest.test_case "cycle: no bridges" `Quick test_cycle_no_bridges;
    Alcotest.test_case "bowtie: no bridges" `Quick test_bowtie_no_bridges;
    Alcotest.test_case "barbell: joining edge" `Quick test_barbell_bridge;
    Alcotest.test_case "disconnected input" `Quick test_disconnected;
    Alcotest.test_case "is_two_edge_connected" `Quick test_two_edge_connected;
    Alcotest.test_case "without-edge variant" `Quick test_without_edge;
    Alcotest.test_case "without-edge matches explicit removal" `Quick
      test_without_matches_removal;
    QCheck_alcotest.to_alcotest prop_bridges_match_oracle;
    QCheck_alcotest.to_alcotest prop_2ec_matches_flow_oracle;
  ]
