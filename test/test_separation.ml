open Nettomo_graph
module Prng = Nettomo_util.Prng

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

(* The differential's graph families, on nodes 0 … n-1: random graphs
   (connected or not), cycles with chords and glued pieces (rich in
   type-1 and type-2 pairs), wheels with spokes removed, and extended
   graphs of random nets under their MMP placements (yes-instances),
   as they are and with one link removed. *)
let family rng = function
  | 0 -> Fixtures.random_connected rng (Prng.int_in rng 4 16) (Prng.int rng 30)
  | 1 -> Fixtures.random_graph rng (Prng.int_in rng 4 14) (Prng.int rng 40)
  | 2 -> Fixtures.cycle_with_chords rng ~first:0 (Prng.int_in rng 4 14) (Prng.int rng 20)
  | 3 -> Fixtures.glued_pieces rng (Prng.int_in rng 1 4)
  | 4 -> Fixtures.wheel_missing_spokes rng (Prng.int_in rng 3 14)
  | f ->
      let net = Fixtures.mmp_net rng (Prng.int_in rng 4 14) (Prng.int rng 25) in
      let gex = (Nettomo_core.Extended.extend net).Nettomo_core.Extended.graph in
      if f = 5 then gex
      else
        let links = Array.of_list (Graph.edges gex) in
        let u, v = links.(Prng.int rng (Array.length links)) in
        Graph.remove_edge gex u v

(* The path search against the sweep it replaced and against Menger's
   max-flow test, half the graphs on sparse identifiers; under forced
   invariants every "no" is checked by its separator. *)
let prop_path_search_matches_references =
  QCheck2.Test.make
    ~name:"path search = sweep reference = Menger (6 families, sparse ids)" ~count:2400
    QCheck2.Gen.(triple (int_bound 1_000_000) (int_bound 6) bool)
    (fun (seed, f, sparse) ->
      let rng = Prng.create seed in
      let g = family rng f in
      let g = if sparse then Fixtures.relabel (Fixtures.sparse_ids rng (Graph.fresh_node g)) g else g in
      let fast =
        Nettomo_util.Invariant.with_enabled true (fun () -> Separation.is_three_vertex_connected g)
      in
      fast = Oracles.Three_connected_ref.is_three_vertex_connected g
      && fast = Connectivity.is_k_vertex_connected g 3
      && (f <> 5 || fast))

let test_flat_entry_counts () =
  (* K5: the palm-tree pass scans every half-edge, the path numbering
     and the path search each walk every link once as an arc. *)
  let c = Csr.of_graph Fixtures.k5 in
  let runs = Nettomo_obs.Obs.Metrics.counter_value Biconnected.dfs_runs
  and scanned = Nettomo_obs.Obs.Metrics.counter_value Biconnected.adjacency_scanned in
  check cb "K5" true (Separation.is_three_vertex_connected_flat c);
  check Alcotest.int "three passes" 3
    (Nettomo_obs.Obs.Metrics.counter_value Biconnected.dfs_runs - runs);
  check Alcotest.int "2m + m + m half-edges" 40
    (Nettomo_obs.Obs.Metrics.counter_value Biconnected.adjacency_scanned - scanned);
  (* A degree-2 node settles "no" with no pass at all. *)
  let runs = Nettomo_obs.Obs.Metrics.counter_value Biconnected.dfs_runs in
  check cb "wheel minus spoke" false
    (Separation.is_three_vertex_connected_flat
       (Csr.of_graph (Graph.remove_edge Fixtures.wheel5 0 3)));
  check Alcotest.int "no pass" 0 (Nettomo_obs.Obs.Metrics.counter_value Biconnected.dfs_runs - runs)

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
    QCheck_alcotest.to_alcotest prop_path_search_matches_references;
    Alcotest.test_case "flat entry: passes and scans counted" `Quick test_flat_entry_counts;
  ]
