open Nettomo_graph
open Nettomo_core

let check = Alcotest.check
let ci = Alcotest.int
let cb = Alcotest.bool
let ns = Graph.NodeSet.of_list

let test_path_all_monitors () =
  (* Every node of a path has degree < 3: all monitors. *)
  let m = Mmp.place (Fixtures.path_graph 4) in
  check Fixtures.nodeset_testable "all nodes" (ns [ 0; 1; 2; 3 ]) m

let test_triangle_all_monitors () =
  let m = Mmp.place Fixtures.triangle in
  check Fixtures.nodeset_testable "all of the triangle" (ns [ 0; 1; 2 ]) m

let test_k4_three_monitors () =
  let r = Mmp.place_report Fixtures.k4 in
  check ci "three monitors" 3 (Graph.NodeSet.cardinal r.Mmp.monitors);
  check ci "all from top-up" 3 (Graph.NodeSet.cardinal r.Mmp.top_up);
  check cb "identifiable" true
    (Identifiability.network_identifiable
       (Net.create Fixtures.k4 ~monitors:(Graph.NodeSet.elements r.Mmp.monitors)))

let test_petersen_three_monitors () =
  let m = Mmp.place Fixtures.petersen in
  check ci "3-connected graph needs only 3" 3 (Graph.NodeSet.cardinal m)

let test_bowtie () =
  let r = Mmp.place_report Fixtures.bowtie in
  check Fixtures.nodeset_testable "degree rule picks the four outer nodes"
    (ns [ 0; 1; 3; 4 ]) r.Mmp.by_degree;
  check Fixtures.nodeset_testable "no other additions needed" (ns [ 0; 1; 3; 4 ])
    r.Mmp.monitors

let test_two_k4_rule_iii () =
  (* Two K4s fused on the pair {2,3}: each triconnected component has
     s = 2 separation vertices, no degree monitors, so rule (iii) must
     add one monitor per component. *)
  let r = Mmp.place_report Fixtures.two_k4_by_pair in
  check ci "no degree monitors" 0 (Graph.NodeSet.cardinal r.Mmp.by_degree);
  check ci "two rule-(iii) monitors" 2 (Graph.NodeSet.cardinal r.Mmp.by_triconnected);
  check cb "they avoid the separation pair" true
    (Graph.NodeSet.is_empty (Graph.NodeSet.inter r.Mmp.by_triconnected (ns [ 2; 3 ])));
  check ci "plus top-up to three" 3 (Graph.NodeSet.cardinal r.Mmp.monitors)

let test_k4_with_tail_rule_iii () =
  (* A K4 with a pendant path: the K4 block is its own triconnected
     component with a single separation vertex (the cut vertex), so rule
     (iii) adds two monitors beside the two forced by degree. *)
  let g = Graph.add_edge (Graph.add_edge Fixtures.k4 0 4) 4 5 in
  let r = Mmp.place_report g in
  check Fixtures.nodeset_testable "degree monitors are the tail" (ns [ 4; 5 ])
    r.Mmp.by_degree;
  check ci "rule (iii) adds two in the K4" 2
    (Graph.NodeSet.cardinal r.Mmp.by_triconnected);
  check cb "they avoid the cut vertex" false
    (Graph.NodeSet.mem 0 r.Mmp.by_triconnected);
  check cb "identifiable" true
    (Identifiability.network_identifiable
       (Net.create g ~monitors:(Graph.NodeSet.elements r.Mmp.monitors)))

let test_rule_iv_block_with_one_cut () =
  (* Rule (iv) proper: a block of two fused K4s attached to the rest by
     one cut vertex. Its triconnected halves end up with enough
     separation vertices / monitors, but the block as a whole has only
     one cut vertex and one monitor, so rule (iv) must add one more. *)
  let g = Graph.add_edge (Graph.add_edge Fixtures.two_k4_by_pair 0 6) 6 7 in
  let r = Mmp.place_report g in
  check Fixtures.nodeset_testable "degree monitors are the tail" (ns [ 6; 7 ])
    r.Mmp.by_degree;
  check ci "rule (iii) adds one (in the far K4)" 1
    (Graph.NodeSet.cardinal r.Mmp.by_triconnected);
  check ci "rule (iv) adds one more" 1 (Graph.NodeSet.cardinal r.Mmp.by_biconnected);
  check cb "identifiable" true
    (Identifiability.network_identifiable
       (Net.create g ~monitors:(Graph.NodeSet.elements r.Mmp.monitors)))

let test_deterministic_default () =
  let m1 = Mmp.place Fixtures.two_k4_by_pair in
  let m2 = Mmp.place Fixtures.two_k4_by_pair in
  check Fixtures.nodeset_testable "same placement" m1 m2

let test_random_choice_same_count () =
  let rng = Nettomo_util.Prng.create 5 in
  let m1 = Mmp.place Fixtures.two_k4_by_pair in
  let m2 = Mmp.place ~rng Fixtures.two_k4_by_pair in
  check ci "same monitor count regardless of choice"
    (Graph.NodeSet.cardinal m1) (Graph.NodeSet.cardinal m2)

let test_tiny_graphs () =
  check ci "single edge: both nodes" 2
    (Graph.NodeSet.cardinal (Mmp.place (Graph.of_edges [ (0, 1) ])));
  Alcotest.check_raises "empty graph" (Invalid_argument "Mmp.place: empty graph")
    (fun () -> ignore (Mmp.place Graph.empty));
  Alcotest.check_raises "disconnected graph"
    (Invalid_argument "Mmp.place: disconnected graph") (fun () ->
      ignore (Mmp.place (Graph.of_edges [ (0, 1); (2, 3) ])))

let test_report_partition () =
  let g = Fixtures.two_k4_by_pair in
  let r = Mmp.place_report g in
  let total =
    Graph.NodeSet.cardinal r.Mmp.by_degree
    + Graph.NodeSet.cardinal r.Mmp.by_triconnected
    + Graph.NodeSet.cardinal r.Mmp.by_biconnected
    + Graph.NodeSet.cardinal r.Mmp.top_up
  in
  check ci "rule sets partition the placement" (Graph.NodeSet.cardinal r.Mmp.monitors)
    total

(* The two halves of Theorem 7.1, on random graphs. *)

let random_graph seed n extra =
  let rng = Nettomo_util.Prng.create seed in
  Fixtures.random_connected rng n extra

let prop_mmp_identifiable_topological =
  QCheck2.Test.make
    ~name:"MMP placement passes the Theorem 3.3 test (medium graphs)" ~count:150
    QCheck2.Gen.(triple (int_bound 1_000_000) (int_range 3 40) (int_range 0 40))
    (fun (seed, n, extra) ->
      let g = random_graph seed n extra in
      let monitors = Graph.NodeSet.elements (Mmp.place g) in
      (* n ≥ 3 here, so MMP places at least 3 monitors. *)
      Identifiability.network_identifiable (Net.create g ~monitors))

let prop_mmp_identifiable_bruteforce =
  QCheck2.Test.make
    ~name:"MMP placement identifiable by exact rank (small graphs)" ~count:80
    QCheck2.Gen.(triple (int_bound 1_000_000) (int_range 3 9) (int_range 0 10))
    (fun (seed, n, extra) ->
      let g = random_graph seed n extra in
      let monitors = Graph.NodeSet.elements (Mmp.place g) in
      let net = Net.create g ~monitors in
      Identifiability.network_identifiable_bruteforce net)

(* Exhaustive minimality on small graphs: no placement with one fewer
   monitor identifies the network. *)
let rec subsets_of_size k = function
  | [] -> if k = 0 then [ [] ] else []
  | x :: rest ->
      if k = 0 then [ [] ]
      else
        List.map (fun s -> x :: s) (subsets_of_size (k - 1) rest)
        @ subsets_of_size k rest

let prop_mmp_minimal =
  QCheck2.Test.make ~name:"no smaller placement identifies (small graphs)"
    ~count:60
    QCheck2.Gen.(triple (int_bound 1_000_000) (int_range 3 8) (int_range 0 8))
    (fun (seed, n, extra) ->
      let g = random_graph seed n extra in
      let kappa = Graph.NodeSet.cardinal (Mmp.place g) in
      QCheck2.assume (kappa > 2 && kappa <= Graph.n_nodes g);
      let nodes = Graph.nodes g in
      subsets_of_size (kappa - 1) nodes
      |> List.for_all (fun monitors ->
             let net = Net.create g ~monitors in
             (* κ-1 could be 2: the κ=2 clause of network_identifiable
                covers that; below 2 it is false anyway. *)
             not (Identifiability.network_identifiable net)))

(* The one flat implementation against the persistent reference
   ([Oracles.Mmp_ref]): every report field, with the default picks and
   with a generator (same seed on both sides, so the same draws). *)
let same_as_reference ?seed g =
  let rng () = Option.map Nettomo_util.Prng.create seed in
  let run f = try Ok (f ()) with Invalid_argument m -> Error m in
  Nettomo_engine.Session.equal_result Nettomo_engine.Session.equal_report
    (run (fun () -> Mmp.place_report ?rng:(rng ()) g))
    (run (fun () -> Oracles.Mmp_ref.place_report ?rng:(rng ()) g))

(* On shuffled sparse identifiers (access churn attaches its leaves
   with sparse ones), one of: the largest connected component of an ER
   draw (dangling trees, cut vertices and separation pairs aplenty); a
   BA graph; or a chain of blocks rich in separation pairs (glued
   pieces, [Fixtures.glued_pieces]), each hung on a random node of the
   chain so far, so that rules (iii) and (iv) fire in several blocks
   and the generator draws for each in turn. *)
let random_connected_sparse seed =
  let module Prng = Nettomo_util.Prng in
  let module Gen = Nettomo_topo.Gen in
  let rng = Prng.create seed in
  let n = Prng.int_in rng 3 48 in
  let g =
    match Prng.int rng 3 with
    | 0 ->
        let er = Gen.erdos_renyi rng ~n ~p:(Prng.float rng 4.0 /. float_of_int n) in
        List.fold_left
          (fun best comp ->
            if Graph.NodeSet.cardinal comp > Graph.n_nodes best then
              Graph.induced er comp
            else best)
          Graph.empty (Traversal.components er)
    | 1 -> Gen.barabasi_albert rng ~n:(max n 4) ~nmin:(Prng.int_in rng 1 3)
    | _ ->
        let chain = ref (Fixtures.glued_pieces rng (Prng.int_in rng 1 3)) in
        for _ = 2 to Prng.int_in rng 2 4 do
          let at = Prng.choose rng (Graph.node_array !chain) in
          let shift = Graph.fresh_node !chain in
          let piece = Fixtures.glued_pieces rng (Prng.int_in rng 1 3) in
          chain :=
            Graph.fold_edges
              (fun (u, v) acc ->
                let name x = if x = 0 then at else shift + x in
                Graph.add_edge acc (name u) (name v))
              piece !chain
        done;
        !chain
  in
  Fixtures.relabel (Fixtures.sparse_ids rng (Graph.fresh_node g)) g

let prop_matches_reference =
  QCheck2.Test.make ~name:"report = persistent reference (ER, BA, sparse ids)"
    ~count:400 (QCheck2.Gen.int_bound 1_000_000) (fun seed ->
      let g = random_connected_sparse seed in
      same_as_reference g && same_as_reference ~seed g)

let test_maps_match_reference () =
  List.iter
    (fun (name, g) ->
      let rng = Nettomo_util.Prng.create 11 in
      let sparse = Fixtures.relabel (Fixtures.sparse_ids rng (Graph.fresh_node g)) g in
      List.iter
        (fun (what, g, seed) ->
          check cb (Printf.sprintf "%s, %s" name what) true (same_as_reference ?seed g))
        [
          ("default picks", g, None);
          ("with a generator", g, Some 5);
          ("sparse ids", sparse, None);
          ("sparse ids, with a generator", sparse, Some 5);
        ])
    (Fixtures.suite_maps () @ Fixtures.pinned_maps ())

let test_errors_match_reference () =
  List.iter
    (fun (name, g) -> check cb name true (same_as_reference g))
    [
      ("empty", Graph.empty);
      ("single node", Graph.add_node Graph.empty 5);
      ("disconnected", Graph.of_edges [ (0, 1); (2, 3) ]);
      ("isolated node beside a link", Graph.add_node (Graph.of_edges [ (0, 1) ]) 7);
    ]

let suite =
  [
    Alcotest.test_case "path: every node" `Quick test_path_all_monitors;
    Alcotest.test_case "triangle: every node" `Quick test_triangle_all_monitors;
    Alcotest.test_case "K4: three monitors" `Quick test_k4_three_monitors;
    Alcotest.test_case "Petersen: three monitors" `Quick test_petersen_three_monitors;
    Alcotest.test_case "bowtie: degree rule only" `Quick test_bowtie;
    Alcotest.test_case "two K4s: rule (iii)" `Quick test_two_k4_rule_iii;
    Alcotest.test_case "K4 + tail: rule (iii)" `Quick test_k4_with_tail_rule_iii;
    Alcotest.test_case "fused K4s + tail: rule (iv)" `Quick test_rule_iv_block_with_one_cut;
    Alcotest.test_case "deterministic by default" `Quick test_deterministic_default;
    Alcotest.test_case "random choice keeps count" `Quick test_random_choice_same_count;
    Alcotest.test_case "tiny graphs" `Quick test_tiny_graphs;
    Alcotest.test_case "report partitions placement" `Quick test_report_partition;
    QCheck_alcotest.to_alcotest prop_mmp_identifiable_topological;
    QCheck_alcotest.to_alcotest prop_mmp_identifiable_bruteforce;
    QCheck_alcotest.to_alcotest prop_mmp_minimal;
    QCheck_alcotest.to_alcotest prop_matches_reference;
    Alcotest.test_case "report = persistent reference (suite and pinned maps)"
      `Quick test_maps_match_reference;
    Alcotest.test_case "errors = persistent reference" `Quick
      test_errors_match_reference;
  ]
