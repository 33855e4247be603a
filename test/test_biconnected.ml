open Nettomo_graph

let check = Alcotest.check
let ci = Alcotest.int
let cb = Alcotest.bool
let ns = Graph.NodeSet.of_list

(* Brute-force oracle for cut vertices. *)
let cut_vertices_oracle g =
  Graph.fold_nodes
    (fun v acc ->
      let before = List.length (Traversal.components g) in
      let after = List.length (Traversal.components (Graph.remove_node g v)) in
      (* Removing an isolated node drops a component; a cut vertex
         strictly increases the count. *)
      if after > before - (if Graph.degree g v = 0 then 1 else 0) then
        Graph.NodeSet.add v acc
      else acc)
    g Graph.NodeSet.empty

let test_bowtie () =
  let r = Biconnected.decompose Fixtures.bowtie in
  check Fixtures.nodeset_testable "cut vertex is 2" (ns [ 2 ]) r.cut_vertices;
  check ci "two blocks" 2 (List.length r.components);
  List.iter
    (fun (c : Biconnected.component) ->
      check ci "block is a triangle" 3 (Graph.NodeSet.cardinal c.nodes);
      check ci "3 edges" 3 (Graph.EdgeSet.cardinal c.edges))
    r.components

let test_path_blocks () =
  let r = Biconnected.decompose (Fixtures.path_graph 4) in
  check ci "each edge is a block" 3 (List.length r.components);
  check Fixtures.nodeset_testable "inner nodes are cuts" (ns [ 1; 2 ])
    r.cut_vertices

let test_cycle_single_block () =
  let r = Biconnected.decompose (Fixtures.cycle_graph 6) in
  check ci "one block" 1 (List.length r.components);
  check Fixtures.nodeset_testable "no cuts" Graph.NodeSet.empty r.cut_vertices

let test_isolated_node_block () =
  let g = Graph.of_edges ~nodes:[ 9 ] [ (0, 1) ] in
  let r = Biconnected.decompose g in
  check ci "edge block + singleton block" 2 (List.length r.components);
  check cb "singleton block present" true
    (List.exists
       (fun (c : Biconnected.component) ->
         Graph.NodeSet.equal c.nodes (ns [ 9 ]) && Graph.EdgeSet.is_empty c.edges)
       r.components)

let test_fig8_style () =
  (* A triangle, then a bridge, then a square: blocks = triangle, bridge
     edge, square; cuts = bridge endpoints. *)
  let g =
    Graph.of_edges
      [ (0, 1); (1, 2); (0, 2); (2, 3); (3, 4); (4, 5); (5, 6); (6, 3) ]
  in
  let r = Biconnected.decompose g in
  check ci "three blocks" 3 (List.length r.components);
  check Fixtures.nodeset_testable "cuts are 2 and 3" (ns [ 2; 3 ]) r.cut_vertices

let test_is_biconnected () =
  check cb "triangle" true (Biconnected.is_biconnected Fixtures.triangle);
  check cb "cycle" true (Biconnected.is_biconnected (Fixtures.cycle_graph 5));
  check cb "single edge (K2)" false
    (Biconnected.is_biconnected (Graph.of_edges [ (0, 1) ]));
  check cb "bowtie" false (Biconnected.is_biconnected Fixtures.bowtie);
  check cb "path" false (Biconnected.is_biconnected (Fixtures.path_graph 4));
  check cb "disconnected" false
    (Biconnected.is_biconnected (Graph.of_edges [ (0, 1); (2, 3) ]))

let blocks_edge_partition g =
  let r = Biconnected.decompose g in
  let all =
    List.fold_left
      (fun acc (c : Biconnected.component) -> Graph.EdgeSet.union acc c.edges)
      Graph.EdgeSet.empty r.components
  in
  let total =
    List.fold_left
      (fun acc (c : Biconnected.component) -> acc + Graph.EdgeSet.cardinal c.edges)
      0 r.components
  in
  Graph.EdgeSet.equal all (Graph.edge_set g) && total = Graph.n_edges g

let prop_cut_vertices_oracle =
  QCheck2.Test.make ~name:"cut vertices match brute-force oracle" ~count:300
    QCheck2.Gen.(triple (int_bound 100_000) (int_range 2 25) (int_range 0 15))
    (fun (seed, n, extra) ->
      let rng = Nettomo_util.Prng.create seed in
      let g = Fixtures.random_connected rng n extra in
      Graph.NodeSet.equal (Biconnected.cut_vertices g) (cut_vertices_oracle g))

let prop_blocks_partition_edges =
  QCheck2.Test.make ~name:"blocks partition the edge set" ~count:300
    QCheck2.Gen.(triple (int_bound 100_000) (int_range 2 25) (int_range 0 15))
    (fun (seed, n, extra) ->
      let rng = Nettomo_util.Prng.create seed in
      blocks_edge_partition (Fixtures.random_connected rng n extra))

let prop_blocks_pairwise_share_at_most_one_node =
  QCheck2.Test.make ~name:"blocks share at most one node" ~count:200
    QCheck2.Gen.(triple (int_bound 100_000) (int_range 2 20) (int_range 0 12))
    (fun (seed, n, extra) ->
      let rng = Nettomo_util.Prng.create seed in
      let g = Fixtures.random_connected rng n extra in
      let r = Biconnected.decompose g in
      let rec pairs = function
        | [] -> true
        | (c : Biconnected.component) :: rest ->
            List.for_all
              (fun (c' : Biconnected.component) ->
                Graph.NodeSet.cardinal (Graph.NodeSet.inter c.nodes c'.nodes) <= 1)
              rest
            && pairs rest
      in
      pairs r.components)

let prop_2vc_matches_flow_oracle =
  QCheck2.Test.make ~name:"biconnectivity matches max-flow oracle" ~count:150
    QCheck2.Gen.(
      triple (int_bound 100_000)
        (oneof [ int_range 1 4; int_range 5 16 ])
        (int_range 0 20))
    (fun (seed, n, extra) ->
      let rng = Nettomo_util.Prng.create seed in
      let g = Fixtures.random_graph rng n extra in
      Biconnected.is_biconnected g = Connectivity.is_k_vertex_connected g 2)

(* The flat members of every block are the block [decompose] lists in
   the same place: its nodes, head first, and its links, ascending. *)
let prop_members_match_decompose =
  QCheck2.Test.make ~name:"members = decompose's blocks (sparse ids)" ~count:300
    QCheck2.Gen.(triple (int_bound 100_000) (int_range 1 25) (int_range 0 20))
    (fun (seed, n, extra) ->
      let rng = Nettomo_util.Prng.create seed in
      let g = Fixtures.random_sparse_graph rng n extra in
      let c, flat, blocks = Fixtures.flat_blocks g in
      let m = Biconnected.members c flat in
      List.length blocks = flat.n_blocks
      && List.for_all
           (fun ((b : Biconnected.component), k) ->
             let nodes = m.nodes.(k) and links = m.links.(k) in
             nodes.(0) = flat.head.(k)
             && Array.for_all (fun l -> flat.block_of_link.(l) = k) links
             && Array.for_all2 (fun (a : int) b -> a < b) (Array.sub links 0 (Array.length links - 1))
                  (Array.sub links 1 (Array.length links - 1))
             && Graph.NodeSet.equal b.nodes
                  (Graph.NodeSet.of_list (Array.to_list (Array.map (fun i -> c.ids.(i)) nodes)))
             && Array.length nodes = Graph.NodeSet.cardinal b.nodes
             && Graph.EdgeSet.equal b.edges
                  (Graph.EdgeSet.of_list (Array.to_list (Array.map (Csr.edge c) links))))
           blocks)

let suite =
  [
    Alcotest.test_case "bowtie decomposition" `Quick test_bowtie;
    Alcotest.test_case "path blocks" `Quick test_path_blocks;
    Alcotest.test_case "cycle single block" `Quick test_cycle_single_block;
    Alcotest.test_case "isolated node block" `Quick test_isolated_node_block;
    Alcotest.test_case "mixed blocks and cuts" `Quick test_fig8_style;
    Alcotest.test_case "is_biconnected" `Quick test_is_biconnected;
    QCheck_alcotest.to_alcotest prop_cut_vertices_oracle;
    QCheck_alcotest.to_alcotest prop_blocks_partition_edges;
    QCheck_alcotest.to_alcotest prop_blocks_pairwise_share_at_most_one_node;
    QCheck_alcotest.to_alcotest prop_2vc_matches_flow_oracle;
    QCheck_alcotest.to_alcotest prop_members_match_decompose;
  ]
