open Nettomo_graph

let check = Alcotest.check
let ci = Alcotest.int
let cb = Alcotest.bool

let test_edge_normalization () =
  check Fixtures.edge_testable "edge 5 2" (2, 5) (Graph.edge 5 2);
  check Fixtures.edge_testable "edge 2 5" (2, 5) (Graph.edge 2 5);
  Alcotest.check_raises "self-loop rejected" (Invalid_argument "Graph.edge: self-loop")
    (fun () -> ignore (Graph.edge 3 3))

let test_empty () =
  check cb "empty is empty" true (Graph.is_empty Graph.empty);
  check ci "no nodes" 0 (Graph.n_nodes Graph.empty);
  check ci "no edges" 0 (Graph.n_edges Graph.empty)

let test_add_remove_node () =
  let g = Graph.add_node Graph.empty 7 in
  check cb "node present" true (Graph.mem_node g 7);
  check ci "one node" 1 (Graph.n_nodes g);
  check ci "degree 0" 0 (Graph.degree g 7);
  let g = Graph.add_node g 7 in
  check ci "idempotent add" 1 (Graph.n_nodes g);
  let g = Graph.remove_node g 7 in
  check cb "removed" false (Graph.mem_node g 7)

let test_add_edge_implicit_nodes () =
  let g = Graph.add_edge Graph.empty 1 2 in
  check cb "node 1" true (Graph.mem_node g 1);
  check cb "node 2" true (Graph.mem_node g 2);
  check cb "edge both ways" true (Graph.mem_edge g 2 1);
  check ci "one edge" 1 (Graph.n_edges g)

let test_add_edge_idempotent () =
  let g = Graph.add_edge (Graph.add_edge Graph.empty 1 2) 2 1 in
  check ci "still one edge" 1 (Graph.n_edges g)

let test_add_edge_self_loop () =
  Alcotest.check_raises "self-loop rejected"
    (Invalid_argument "Graph.add_edge: self-loop") (fun () ->
      ignore (Graph.add_edge Graph.empty 4 4))

let test_remove_edge () =
  let g = Fixtures.triangle in
  let g' = Graph.remove_edge g 0 1 in
  check ci "edge count drops" 2 (Graph.n_edges g');
  check cb "nodes kept" true (Graph.mem_node g' 0 && Graph.mem_node g' 1);
  check Fixtures.graph_testable "removing absent edge is a no-op" g'
    (Graph.remove_edge g' 0 1)

let test_remove_node_removes_incident () =
  let g = Graph.remove_node Fixtures.k4 0 in
  check ci "3 nodes left" 3 (Graph.n_nodes g);
  check ci "3 edges left (triangle)" 3 (Graph.n_edges g);
  check Fixtures.graph_testable "k4 minus node is triangle"
    (Graph.of_edges [ (1, 2); (1, 3); (2, 3) ])
    g

let test_of_edges_with_nodes () =
  let g = Graph.of_edges ~nodes:[ 9 ] [ (0, 1) ] in
  check ci "two plus isolated" 3 (Graph.n_nodes g);
  check ci "degree of isolated" 0 (Graph.degree g 9)

let test_nodes_sorted () =
  let g = Graph.of_edges [ (5, 2); (9, 1) ] in
  check (Alcotest.list ci) "sorted nodes" [ 1; 2; 5; 9 ] (Graph.nodes g)

let test_edges_normalized_sorted () =
  let g = Graph.of_edges [ (5, 2); (3, 1); (2, 1) ] in
  check
    (Alcotest.list Fixtures.edge_testable)
    "sorted normalized edges"
    [ (1, 2); (1, 3); (2, 5) ]
    (Graph.edges g)

let test_neighbors () =
  let g = Fixtures.k4 in
  check Fixtures.nodeset_testable "neighbors of 0"
    (Graph.NodeSet.of_list [ 1; 2; 3 ])
    (Graph.neighbors g 0);
  check Fixtures.nodeset_testable "neighbors of absent node"
    Graph.NodeSet.empty (Graph.neighbors g 42)

let test_incident_edges () =
  check
    (Alcotest.list Fixtures.edge_testable)
    "L(2) in triangle"
    [ (0, 2); (1, 2) ]
    (Graph.incident_edges Fixtures.triangle 2)

let test_induced () =
  let g = Fixtures.k4 in
  let sub = Graph.induced g (Graph.NodeSet.of_list [ 0; 1; 2 ]) in
  check Fixtures.graph_testable "induced triangle" Fixtures.triangle sub

let test_induced_keeps_isolated () =
  let g = Graph.of_edges ~nodes:[ 5 ] [ (0, 1) ] in
  let sub = Graph.induced g (Graph.NodeSet.of_list [ 0; 5 ]) in
  check ci "both nodes kept" 2 (Graph.n_nodes sub);
  check ci "no edges" 0 (Graph.n_edges sub)

let test_degrees () =
  check ci "min degree of star" 1 (Graph.min_degree (Fixtures.star 4));
  check ci "max degree of star" 4 (Graph.max_degree (Fixtures.star 4));
  Alcotest.check_raises "min_degree on empty"
    (Invalid_argument "Graph.min_degree: empty graph") (fun () ->
      ignore (Graph.min_degree Graph.empty))

let test_fresh_node () =
  check ci "fresh on empty" 0 (Graph.fresh_node Graph.empty);
  check ci "fresh on k4" 4 (Graph.fresh_node Fixtures.k4);
  let g = Graph.of_edges [ (3, 17) ] in
  check ci "fresh above max" 18 (Graph.fresh_node g);
  (* Above [max_int] lies [min_int]: the id must not wrap onto a node. *)
  let g = Graph.of_edges [ (-5, max_int) ] in
  check ci "smallest free when max_int is taken" min_int (Graph.fresh_node g);
  let g = Graph.of_edges [ (min_int, max_int); (min_int + 1, max_int) ] in
  check ci "skips taken ids from min_int" (min_int + 2) (Graph.fresh_node g)

let test_fold_edges_each_once () =
  let count = Graph.fold_edges (fun _ acc -> acc + 1) Fixtures.k4 0 in
  check ci "k4 has 6 edges" 6 count

(* The flat form replaced [Graph.Compact]: every row mirrors the
   original adjacency and identifiers round-trip through the index. *)
let test_compact_roundtrip () =
  let g = Fixtures.petersen in
  let c = Csr.of_graph g in
  check ci "compact size" 10 c.Csr.n;
  for i = 0 to c.Csr.n - 1 do
    let v = c.Csr.ids.(i) in
    check ci
      (Printf.sprintf "degree of %d" v)
      (Graph.degree g v)
      (c.Csr.xadj.(i + 1) - c.Csr.xadj.(i));
    for k = c.Csr.xadj.(i) to c.Csr.xadj.(i + 1) - 1 do
      check cb "edge exists" true (Graph.mem_edge g v c.Csr.ids.(c.Csr.adj.(k)))
    done
  done;
  check ci "index of id roundtrip" 3 (Csr.index c c.Csr.ids.(3))

let test_equal () =
  let g1 = Graph.of_edges [ (0, 1); (1, 2) ] in
  let g2 = Graph.of_edges [ (1, 2); (0, 1) ] in
  check cb "order independent" true (Graph.equal g1 g2);
  check cb "different edges differ" false
    (Graph.equal g1 (Graph.of_edges [ (0, 1); (0, 2) ]));
  check cb "isolated node matters" false
    (Graph.equal g1 (Graph.add_node g1 99))

(* Property: add_edge then remove_edge is identity on edge set. *)
let prop_add_remove_edge =
  QCheck2.Test.make ~name:"add then remove edge restores graph" ~count:200
    QCheck2.Gen.(triple (int_bound 1000) (int_range 0 15) (int_range 0 15))
    (fun (seed, u, v) ->
      QCheck2.assume (u <> v);
      let rng = Nettomo_util.Prng.create seed in
      let g = Fixtures.random_connected rng 16 10 in
      QCheck2.assume (not (Graph.mem_edge g u v));
      Graph.equal g (Graph.remove_edge (Graph.add_edge g u v) u v))

(* Property: degree sums to twice the edge count. *)
let prop_handshake =
  QCheck2.Test.make ~name:"handshake lemma" ~count:200
    QCheck2.Gen.(pair (int_bound 1000) (int_range 2 40))
    (fun (seed, n) ->
      let rng = Nettomo_util.Prng.create seed in
      let g = Fixtures.random_connected rng n (n / 2) in
      let sum = Graph.fold_nodes (fun v acc -> acc + Graph.degree g v) g 0 in
      sum = 2 * Graph.n_edges g)

(* Every graph the separation sweep sees (an induced block) and every
   extended graph has gaps between its ids, so relabel random graphs
   one-to-one onto sparse ids: the flat form must hold its invariant,
   index every id back (and no other), find each link from either end
   by its neighbour's id, number links in measurement-column order,
   and every structural answer must map through the relabelling. *)
let prop_sparse_ids =
  QCheck2.Test.make ~name:"Csr and answers on sparse ids" ~count:200
    QCheck2.Gen.(triple (int_bound 1_000_000) (int_range 2 25) (int_range 0 30))
    (fun (seed, n, extra) ->
      let open Nettomo_core in
      let rng = Nettomo_util.Prng.create seed in
      let g = Fixtures.random_connected rng n extra in
      let ids = Fixtures.sparse_ids rng n in
      let f v = ids.(v) in
      let h =
        Graph.fold_edges
          (fun (u, v) acc -> Graph.add_edge acc (f u) (f v))
          g (Graph.of_edges ~nodes:(Array.to_list ids) [])
      in
      let csr = Csr.of_graph h in
      Nettomo_util.Invariant.with_enabled true (fun () ->
          Csr.Invariant.check h csr);
      let map_edges es =
        Graph.EdgeSet.map (fun (u, v) -> Graph.edge (f u) (f v)) es
      in
      let pairs g = Graph.EdgeSet.of_list (Separation.cut_pairs g) in
      let identifiable g monitors =
        Identifiability.network_identifiable (Net.create g ~monitors)
      in
      let monitors =
        Array.to_list (Nettomo_util.Prng.sample rng (min n 3) (Array.init n Fun.id))
      in
      let fresh = Graph.fresh_node h in
      Array.for_all (fun v -> csr.ids.(Csr.index csr v) = v) ids
      && (match Csr.index csr fresh with
         | _ -> false
         | exception Invalid_argument _ -> true)
      && Array.for_all (fun v -> Csr.find csr v = Csr.index csr v) ids
      && Csr.find csr fresh = -1
      && Array.for_all
           (fun u ->
             let i = Csr.index csr u in
             Csr.half_edge csr i fresh = -1
             && Array.for_all
                  (fun v ->
                    match Csr.half_edge csr i v with
                    | -1 -> not (Graph.mem_edge h u v)
                    | k ->
                        csr.adj.(k) = Csr.index csr v
                        && Graph.edge_equal (Csr.edge csr csr.eid.(k)) (Graph.edge u v))
                  ids)
           ids
      && Array.for_all2 Graph.edge_equal
           (Array.init csr.m (Csr.edge csr))
           (Measurement.link_order (Measurement.space h))
      && Graph.EdgeSet.equal (Bridges.bridges h) (map_edges (Bridges.bridges g))
      && Graph.NodeSet.equal (Biconnected.cut_vertices h)
           (Graph.NodeSet.map f (Biconnected.cut_vertices g))
      && Graph.EdgeSet.equal (pairs h) (map_edges (pairs g))
      && Bool.equal
           (Separation.is_three_vertex_connected h)
           (Separation.is_three_vertex_connected g)
      && (n < 3
         || Bool.equal (identifiable h (List.map f monitors))
              (identifiable g monitors)))

(* The restriction of a flat graph to some of its links is the flat
   form of the graph those links make, as the coverage fallback hands a
   component to the path search: on random graphs relabelled onto
   sparse ids, with random link subsets (the whole set and the empty
   one among them), it equals [of_graph] of that graph field by field
   and holds its invariant; links out of order are refused. *)
let prop_csr_restrict =
  QCheck2.Test.make ~name:"Csr.restrict = of_graph of its links' graph (sparse ids)"
    ~count:200
    QCheck2.Gen.(quad (int_bound 1_000_000) (int_range 2 25) (int_range 0 30) (int_range 0 4))
    (fun (seed, n, extra, sparsity) ->
      let rng = Nettomo_util.Prng.create seed in
      let g = Fixtures.random_connected rng n extra in
      let ids = Fixtures.sparse_ids rng n in
      let h =
        Graph.fold_edges
          (fun (u, v) acc -> Graph.add_edge acc ids.(u) ids.(v))
          g (Graph.of_edges ~nodes:(Array.to_list ids) [])
      in
      let csr = Csr.of_graph h in
      let links =
        Array.of_list
          (List.filter
             (fun _ -> sparsity > 0 && Nettomo_util.Prng.int rng sparsity = 0)
             (List.init csr.m Fun.id))
      in
      let sub = Csr.restrict csr links in
      let gs = Graph.of_edges (Array.to_list (Array.map (Csr.edge csr) links)) in
      let expected = Csr.of_graph gs in
      Nettomo_util.Invariant.with_enabled true (fun () -> Csr.Invariant.check gs sub);
      let same a b = Array.length a = Array.length b && Array.for_all2 Int.equal a b in
      sub.n = expected.n && sub.m = expected.m
      && same sub.ids expected.ids
      && same sub.xadj expected.xadj
      && same sub.adj expected.adj
      && same sub.eid expected.eid
      && same sub.ends expected.ends
      && (csr.m < 2
         ||
         match Csr.restrict csr [| 1; 0 |] with
         | _ -> false
         | exception Invalid_argument _ -> true))

(* Identifier layouts for the flat form's two ways to index a
   neighbour: runs of consecutive ids (read off as an offset from the
   first) at zero, below zero, and at either end of the int range; and
   ids with gaps (searched for), among them a set split between both
   ends of the range, whose span wraps past [max_int]. *)
let id_layouts n =
  [
    Array.init n Fun.id;
    Array.init n (fun i -> i - n - 3);
    Array.init n (fun i -> min_int + i);
    Array.init n (fun i -> max_int - (n - 1) + i);
    Array.init n (fun i -> 2 * i);
    Array.init n (fun i -> if i < n / 2 then i else i + 1);
    Array.init n (fun i -> -7 * (n - i));
    Array.init n (fun i -> if i < n / 2 then min_int + i else max_int - (n - 1 - i));
  ]

(* The first position in [lo, hi) whose key is [v], or -1. *)
let linear_scan key lo hi v =
  let rec go k = if k >= hi then -1 else if key k = v then k else go (k + 1) in
  go lo

(* One random graph relabelled, in random order, onto every layout:
   the flat form holds its invariant, and [find], [index] and
   [half_edge] answer what a linear scan of [ids] and of each row
   answers, for every node and for ids next to and outside the run. *)
let prop_csr_index_paths =
  QCheck2.Test.make ~name:"Csr lookups = linear scan on every id layout" ~count:300
    QCheck2.Gen.(triple (int_bound 1_000_000) (int_range 1 20) (int_range 0 25))
    (fun (seed, n, extra) ->
      let rng = Nettomo_util.Prng.create seed in
      let g = Fixtures.random_connected rng n extra in
      List.for_all
        (fun layout ->
          let ids = Array.copy layout in
          Nettomo_util.Prng.shuffle rng ids;
          let h =
            Graph.fold_edges
              (fun (u, v) acc -> Graph.add_edge acc ids.(u) ids.(v))
              g (Graph.of_edges ~nodes:(Array.to_list ids) [])
          in
          let csr = Csr.of_graph h in
          Nettomo_util.Invariant.with_enabled true (fun () ->
              Csr.Invariant.check h csr);
          let lo = csr.ids.(0) and hi = csr.ids.(n - 1) in
          let probes =
            Array.to_list ids
            @ [ min_int; max_int; 0; -1; 1; lo - 1; lo + 1; hi - 1; hi + 1; Graph.fresh_node h ]
          in
          let find_ref v = linear_scan (Array.get csr.ids) 0 n v in
          List.for_all
            (fun v ->
              let i = find_ref v in
              Csr.find csr v = i
              && (match Csr.index csr v with
                 | j -> j = i
                 | exception Invalid_argument _ -> i = -1)
              && List.for_all
                   (fun i ->
                     Csr.half_edge csr i v
                     = linear_scan
                         (fun k -> csr.ids.(csr.adj.(k)))
                         csr.xadj.(i) csr.xadj.(i + 1) v)
                   (List.init n Fun.id))
            probes)
        (id_layouts n))

let suite =
  [
    Alcotest.test_case "edge normalization" `Quick test_edge_normalization;
    Alcotest.test_case "empty graph" `Quick test_empty;
    Alcotest.test_case "add/remove node" `Quick test_add_remove_node;
    Alcotest.test_case "add_edge adds endpoints" `Quick test_add_edge_implicit_nodes;
    Alcotest.test_case "add_edge idempotent" `Quick test_add_edge_idempotent;
    Alcotest.test_case "add_edge rejects self-loop" `Quick test_add_edge_self_loop;
    Alcotest.test_case "remove_edge" `Quick test_remove_edge;
    Alcotest.test_case "remove_node removes incident" `Quick
      test_remove_node_removes_incident;
    Alcotest.test_case "of_edges with isolated nodes" `Quick test_of_edges_with_nodes;
    Alcotest.test_case "nodes sorted" `Quick test_nodes_sorted;
    Alcotest.test_case "edges normalized and sorted" `Quick
      test_edges_normalized_sorted;
    Alcotest.test_case "neighbors" `Quick test_neighbors;
    Alcotest.test_case "incident edges" `Quick test_incident_edges;
    Alcotest.test_case "induced subgraph" `Quick test_induced;
    Alcotest.test_case "induced keeps isolated nodes" `Quick
      test_induced_keeps_isolated;
    Alcotest.test_case "min/max degree" `Quick test_degrees;
    Alcotest.test_case "fresh_node" `Quick test_fresh_node;
    Alcotest.test_case "fold_edges visits each edge once" `Quick
      test_fold_edges_each_once;
    Alcotest.test_case "compact roundtrip" `Quick test_compact_roundtrip;
    Alcotest.test_case "structural equality" `Quick test_equal;
    QCheck_alcotest.to_alcotest prop_add_remove_edge;
    QCheck_alcotest.to_alcotest prop_handshake;
    QCheck_alcotest.to_alcotest prop_sparse_ids;
    QCheck_alcotest.to_alcotest prop_csr_index_paths;
    QCheck_alcotest.to_alcotest prop_csr_restrict;
  ]
