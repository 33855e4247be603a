open Nettomo_graph

let check = Alcotest.check
let cb = Alcotest.bool

(* Brute-force oracle for minimal 2-vertex cuts on a connected graph. *)
let cut_pairs_oracle g =
  let cuts = Biconnected.cut_vertices g in
  let nodes = Graph.node_array g in
  let acc = ref Graph.EdgeSet.empty in
  Array.iteri
    (fun i u ->
      Array.iteri
        (fun j v ->
          if
            j > i
            && (not (Graph.NodeSet.mem u cuts))
            && (not (Graph.NodeSet.mem v cuts))
            && Graph.n_nodes g > 3
            &&
            let g' = Graph.remove_node (Graph.remove_node g u) v in
            not (Traversal.is_connected g')
          then acc := Graph.EdgeSet.add (Graph.edge u v) !acc)
        nodes)
    nodes;
  !acc

(* Brute-force 3-vertex-connectivity. *)
let is_3vc_oracle g =
  Graph.n_nodes g >= 4
  && Traversal.is_connected g
  && Graph.NodeSet.is_empty (Biconnected.cut_vertices g)
  && Graph.EdgeSet.is_empty (cut_pairs_oracle g)

let test_square_pairs () =
  (* In C4, the two diagonals are the separation pairs. *)
  check
    (Alcotest.list Fixtures.edge_testable)
    "square diagonals"
    [ (0, 2); (1, 3) ]
    (Separation.cut_pairs Fixtures.square)

let test_k4_no_pairs () =
  check (Alcotest.list Fixtures.edge_testable) "k4 has no pairs" []
    (Separation.cut_pairs Fixtures.k4)

let test_two_k4_shared_pair () =
  check
    (Alcotest.list Fixtures.edge_testable)
    "two K4s share pair {2,3}"
    [ (2, 3) ]
    (Separation.cut_pairs Fixtures.two_k4_by_pair)

let test_cut_vertices_excluded () =
  (* Bowtie: node 2 is a cut vertex, so pairs through it are not minimal;
     and removing any two non-cut vertices keeps it connected. *)
  check (Alcotest.list Fixtures.edge_testable) "bowtie has no minimal pairs" []
    (Separation.cut_pairs Fixtures.bowtie)

let test_is_3vc_known () =
  check cb "k4" true (Separation.is_three_vertex_connected Fixtures.k4);
  check cb "k5" true (Separation.is_three_vertex_connected Fixtures.k5);
  check cb "wheel" true (Separation.is_three_vertex_connected Fixtures.wheel5);
  check cb "petersen" true (Separation.is_three_vertex_connected Fixtures.petersen);
  check cb "complete K10" true
    (Separation.is_three_vertex_connected (Nettomo_topo.Gen.complete 10));
  check cb "triangle (too small)" false
    (Separation.is_three_vertex_connected Fixtures.triangle);
  check cb "square" false (Separation.is_three_vertex_connected Fixtures.square);
  check cb "cycle" false
    (Separation.is_three_vertex_connected (Fixtures.cycle_graph 8));
  check cb "bowtie" false (Separation.is_three_vertex_connected Fixtures.bowtie);
  check cb "two K4s" false
    (Separation.is_three_vertex_connected Fixtures.two_k4_by_pair);
  (* Wheel minus a spoke: rim node of degree 2 gives a separation pair. *)
  check cb "wheel minus spoke" false
    (Separation.is_three_vertex_connected (Graph.remove_edge Fixtures.wheel5 0 3))

let prop_cut_pairs_match_oracle =
  QCheck2.Test.make ~name:"cut pairs match brute-force oracle" ~count:250
    QCheck2.Gen.(triple (int_bound 100_000) (int_range 4 18) (int_range 0 20))
    (fun (seed, n, extra) ->
      let rng = Nettomo_util.Prng.create seed in
      let g = Fixtures.random_connected rng n extra in
      Graph.EdgeSet.equal
        (Graph.EdgeSet.of_list (Separation.cut_pairs g))
        (cut_pairs_oracle g))

let prop_3vc_matches_oracle =
  QCheck2.Test.make ~name:"3-vertex-connectivity matches oracle" ~count:250
    QCheck2.Gen.(triple (int_bound 100_000) (int_range 4 16) (int_range 0 30))
    (fun (seed, n, extra) ->
      let rng = Nettomo_util.Prng.create seed in
      let g = Fixtures.random_connected rng n extra in
      Separation.is_three_vertex_connected g = is_3vc_oracle g)

let prop_3vc_matches_flow_oracle =
  QCheck2.Test.make ~name:"3-vertex-connectivity matches max-flow Menger"
    ~count:1400
    QCheck2.Gen.(
      frequency
        [
          ( 3,
            triple (int_bound 100_000)
              (oneof [ int_range 1 4; int_range 5 14 ])
              (int_range 0 40) );
          (* Dense draws, about a quarter of them with more than 3·|V|
             links; the count keeps about 1000 sparse draws, which a
             dropped root-children rule in the sweep's step needs to
             fail reliably. *)
          (1, triple (int_bound 100_000) (int_range 8 14) (int_range 60 160));
        ])
    (fun (seed, n, extra) ->
      let rng = Nettomo_util.Prng.create seed in
      let g = Fixtures.random_graph rng n extra in
      Separation.is_three_vertex_connected g = Connectivity.is_k_vertex_connected g 3)

let suite =
  [
    Alcotest.test_case "square diagonals" `Quick test_square_pairs;
    Alcotest.test_case "k4 has no pairs" `Quick test_k4_no_pairs;
    Alcotest.test_case "shared pair of two K4s" `Quick test_two_k4_shared_pair;
    Alcotest.test_case "cut vertices excluded (minimality)" `Quick
      test_cut_vertices_excluded;
    Alcotest.test_case "3-vertex-connectivity on known graphs" `Quick
      test_is_3vc_known;
    QCheck_alcotest.to_alcotest prop_cut_pairs_match_oracle;
    QCheck_alcotest.to_alcotest prop_3vc_matches_oracle;
    QCheck_alcotest.to_alcotest prop_3vc_matches_flow_oracle;
  ]
