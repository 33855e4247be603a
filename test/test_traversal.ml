open Nettomo_graph

let check = Alcotest.check
let ci = Alcotest.int
let cb = Alcotest.bool

let ns = Graph.NodeSet.of_list

let test_reachable () =
  let g = Graph.of_edges ~nodes:[ 9 ] [ (0, 1); (1, 2); (3, 4) ] in
  check Fixtures.nodeset_testable "component of 0" (ns [ 0; 1; 2 ])
    (Traversal.reachable g 0);
  check Fixtures.nodeset_testable "component of 4" (ns [ 3; 4 ])
    (Traversal.reachable g 4);
  check Fixtures.nodeset_testable "isolated node" (ns [ 9 ])
    (Traversal.reachable g 9)

let test_reachable_avoid_node () =
  let g = Fixtures.path_graph 5 in
  check Fixtures.nodeset_testable "path cut at 2" (ns [ 0; 1 ])
    (Traversal.reachable ~avoid_nodes:(ns [ 2 ]) g 0)

let test_components () =
  let g = Graph.of_edges ~nodes:[ 7 ] [ (0, 1); (2, 3) ] in
  let comps = Traversal.components g in
  check ci "three components" 3 (List.length comps)

let test_components_avoiding () =
  let comps =
    Traversal.components ~avoid_nodes:(ns [ 2 ]) (Fixtures.path_graph 5)
  in
  check ci "two pieces" 2 (List.length comps)

let test_is_connected () =
  check cb "empty connected" true (Traversal.is_connected Graph.empty);
  check cb "singleton connected" true
    (Traversal.is_connected (Graph.add_node Graph.empty 0));
  check cb "path connected" true (Traversal.is_connected (Fixtures.path_graph 6));
  check cb "two parts" false
    (Traversal.is_connected (Graph.of_edges [ (0, 1); (2, 3) ]))

(* Hop distances of the search behind [shortest_path]: the lengths of
   the paths it returns, the short way round the cycle. *)
let test_bfs_distances () =
  let g = Fixtures.cycle_graph 6 in
  let dist d =
    match Traversal.shortest_path g 0 d with
    | Some p -> List.length p - 1
    | None -> Alcotest.fail "cycle is connected"
  in
  check ci "dist to self" 0 (dist 0);
  check ci "dist to 1" 1 (dist 1);
  check ci "dist to 3 (opposite)" 3 (dist 3);
  check ci "dist to 5 (other way)" 1 (dist 5)

let test_shortest_path () =
  let g = Fixtures.cycle_graph 6 in
  (match Traversal.shortest_path g 0 2 with
  | Some p -> check (Alcotest.list ci) "path 0-1-2" [ 0; 1; 2 ] p
  | None -> Alcotest.fail "expected path");
  (match Traversal.shortest_path g 0 0 with
  | Some p -> check (Alcotest.list ci) "trivial path" [ 0 ] p
  | None -> Alcotest.fail "expected trivial path");
  let g2 = Graph.of_edges [ (0, 1); (2, 3) ] in
  check cb "unreachable" true (Traversal.shortest_path g2 0 3 = None)

(* The flat breadth-first tree ({!Csr.bfs}) the solver reads its
   monitor-pair paths off must hold, for every target, the very path the
   per-pair search finds, which is a shortest one; its depths are the
   hop distances, and every tree link carries the number of the link it
   crosses. Graphs are sometimes disconnected, so unreachable targets
   are covered too. *)
let prop_shortest_paths_from_matches_per_pair =
  QCheck2.Test.make ~name:"shortest_paths_from = shortest_path per pair"
    ~count:100
    QCheck2.Gen.(triple (int_bound 1_000_000) (int_range 2 14) bool)
    (fun (seed, n, split) ->
      let rng = Nettomo_util.Prng.create seed in
      let g = Fixtures.random_connected rng n (Nettomo_util.Prng.int rng 12) in
      let g =
        if split then Graph.of_edges (Graph.edges g @ [ (100, 101); (101, 102) ])
        else g
      in
      let csr = Csr.of_graph g in
      let nodes = Graph.nodes g in
      List.for_all
        (fun s ->
          let src = Csr.index csr s in
          let tree = Csr.bfs csr src in
          let reference = List.map (fun d -> (d, Traversal.shortest_path g s d)) nodes in
          let rec up x acc =
            if x = src then csr.Csr.ids.(x) :: acc
            else up tree.Csr.parent.(x) (csr.Csr.ids.(x) :: acc)
          in
          tree.Csr.reached = List.length (List.filter (fun (_, sp) -> sp <> None) reference)
          && tree.Csr.order.(0) = src
          && List.for_all
               (fun (d, sp) ->
                 let x = Csr.index csr d in
                 let p = if tree.Csr.depth.(x) < 0 then None else Some (up x []) in
                 Option.equal (List.equal Int.equal) p sp
                 && (x = src || tree.Csr.parent.(x) < 0
                    || Graph.edge_equal
                         (Csr.edge csr tree.Csr.parent_eid.(x))
                         (Graph.edge d csr.Csr.ids.(tree.Csr.parent.(x))))
                 && tree.Csr.depth.(x)
                    = match sp with Some p -> List.length p - 1 | None -> -1)
               reference)
        nodes)

(* Property: components partition the node set. *)
let prop_components_partition =
  QCheck2.Test.make ~name:"components partition nodes" ~count:200
    QCheck2.Gen.(pair (int_bound 10_000) (int_range 1 30))
    (fun (seed, n) ->
      let rng = Nettomo_util.Prng.create seed in
      (* Possibly disconnected: take a connected graph and delete a node's
         edges by removing a random node. *)
      let g = Fixtures.random_connected rng n (n / 3) in
      let g = if n > 2 then Graph.remove_node g (Nettomo_util.Prng.int rng n) else g in
      let comps = Traversal.components g in
      let total = List.fold_left (fun a c -> a + Graph.NodeSet.cardinal c) 0 comps in
      let union =
        List.fold_left Graph.NodeSet.union Graph.NodeSet.empty comps
      in
      total = Graph.n_nodes g && Graph.NodeSet.equal union (Graph.node_set g))

let suite =
  [
    Alcotest.test_case "reachable" `Quick test_reachable;
    Alcotest.test_case "reachable avoiding node" `Quick test_reachable_avoid_node;
    Alcotest.test_case "components" `Quick test_components;
    Alcotest.test_case "components avoiding nodes" `Quick test_components_avoiding;
    Alcotest.test_case "is_connected variants" `Quick test_is_connected;
    Alcotest.test_case "bfs distances" `Quick test_bfs_distances;
    Alcotest.test_case "shortest path" `Quick test_shortest_path;
    QCheck_alcotest.to_alcotest prop_components_partition;
    QCheck_alcotest.to_alcotest prop_shortest_paths_from_matches_per_pair;
  ]
