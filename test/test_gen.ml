open Nettomo_graph
open Nettomo_topo
module Prng = Nettomo_util.Prng

let check = Alcotest.check
let ci = Alcotest.int
let cb = Alcotest.bool

let test_erdos_renyi_extremes () =
  let rng = Prng.create 1 in
  let g0 = Gen.erdos_renyi rng ~n:10 ~p:0.0 in
  check ci "p=0: no links" 0 (Graph.n_edges g0);
  check ci "p=0: all nodes present" 10 (Graph.n_nodes g0);
  let g1 = Gen.erdos_renyi rng ~n:10 ~p:1.0 in
  check ci "p=1: complete" 45 (Graph.n_edges g1)

let test_erdos_renyi_density () =
  let rng = Prng.create 2 in
  let edges =
    List.init 20 (fun _ -> Graph.n_edges (Gen.erdos_renyi rng ~n:40 ~p:0.3))
  in
  let avg = float_of_int (List.fold_left ( + ) 0 edges) /. 20.0 in
  (* Expectation is 0.3 · C(40,2) = 234. *)
  check cb "average density plausible" true (avg > 200.0 && avg < 270.0)

let test_random_geometric () =
  let rng = Prng.create 3 in
  let g, coords = Gen.random_geometric_with_coords rng ~n:50 ~radius:0.3 in
  check ci "coords per node" 50 (Array.length coords);
  (* Verify the geometric rule exactly. *)
  Graph.iter_edges
    (fun (u, v) ->
      let xu, yu = coords.(u) and xv, yv = coords.(v) in
      let d2 = ((xu -. xv) ** 2.0) +. ((yu -. yv) ** 2.0) in
      check cb "edge within radius" true (d2 <= 0.09 +. 1e-12))
    g;
  let g_all = Gen.random_geometric rng ~n:8 ~radius:2.0 in
  check ci "radius √2 covers the square: complete" 28 (Graph.n_edges g_all)

let test_barabasi_albert () =
  let rng = Prng.create 4 in
  let g = Gen.barabasi_albert rng ~n:100 ~nmin:3 in
  check ci "node count" 100 (Graph.n_nodes g);
  check cb "connected (always)" true (Traversal.is_connected g);
  (* 3 seed links + 3 per node beyond the seed. *)
  check ci "link count" (3 + (3 * 96)) (Graph.n_edges g);
  (* Preferential attachment: the max degree should be well above nmin. *)
  check cb "hub formed" true (Graph.max_degree g > 8)

let test_barabasi_albert_nmin2 () =
  let rng = Prng.create 5 in
  let g = Gen.barabasi_albert rng ~n:150 ~nmin:2 in
  check ci "link count" (3 + (2 * 146)) (Graph.n_edges g);
  (* The paper: with nmin = 2 around half the nodes have degree < 3. *)
  let s = Stats.summary g in
  check cb "many low-degree nodes" true (s.Stats.degree_lt3_frac > 0.3)

let test_power_law () =
  let rng = Prng.create 6 in
  let g = Gen.power_law rng ~n:150 ~alpha:0.42 in
  check ci "node count" 150 (Graph.n_nodes g);
  (* Expected links ≈ Σdᵢ/2 ≈ 430 for n=150, α=0.42 (paper's dense PL). *)
  let m = Graph.n_edges g in
  check cb (Printf.sprintf "links plausible (%d)" m) true (m > 300 && m < 580);
  (* Later nodes have higher expected degree. *)
  let lo = Graph.degree g 0 and hi = Graph.degree g 149 in
  check cb "degree skew" true (hi >= lo)

let test_waxman () =
  let rng = Prng.create 55 in
  let g = Gen.waxman rng ~n:60 ~alpha:0.9 ~beta:0.9 in
  check ci "node count" 60 (Graph.n_nodes g);
  check cb "produces links" true (Graph.n_edges g > 0);
  (* beta scales density down. *)
  let sparse = Gen.waxman rng ~n:60 ~alpha:0.9 ~beta:0.05 in
  check cb "smaller beta, fewer links" true
    (Graph.n_edges sparse < Graph.n_edges g);
  Alcotest.check_raises "invalid parameters"
    (Invalid_argument "Gen.waxman: alpha and beta must be in (0, 1]") (fun () ->
      ignore (Gen.waxman rng ~n:10 ~alpha:0.0 ~beta:0.5))

let edge_list g = Graph.EdgeSet.elements (Graph.edge_set g)

let test_erdos_renyi_sparse () =
  let g = Gen.erdos_renyi_sparse (Prng.create 9) ~n:400 ~p:0.02 in
  check ci "node count" 400 (Graph.n_nodes g);
  (* Expectation is 0.02 · C(400,2) = 1596. *)
  let m = Graph.n_edges g in
  check cb (Printf.sprintf "density plausible (%d)" m) true
    (m > 1300 && m < 1900);
  let g0 = Gen.erdos_renyi_sparse (Prng.create 9) ~n:50 ~p:0.0 in
  check ci "p=0: no links" 0 (Graph.n_edges g0);
  Alcotest.check_raises "p=1 rejected"
    (Invalid_argument "Gen.erdos_renyi_sparse: p must be in [0, 1)") (fun () ->
      ignore (Gen.erdos_renyi_sparse (Prng.create 9) ~n:10 ~p:1.0))

let test_waxman_sparse () =
  let g = Gen.waxman_sparse (Prng.create 10) ~n:300 ~alpha:0.6 ~beta:0.3 in
  check ci "node count" 300 (Graph.n_nodes g);
  check cb "produces links" true (Graph.n_edges g > 0);
  (* Thinning keeps at most the skip-sampled candidates at rate beta. *)
  check cb "thinner than rate-beta ER" true
    (float_of_int (Graph.n_edges g) < 0.3 *. float_of_int (300 * 299 / 2))

let test_sparse_generators_scale () =
  (* ISP densities at 10^4 nodes: the dense O(n²) loops are out of
     reach here, the sparse generators finish in well under a second. *)
  let n = 10_000 in
  let er = Gen.erdos_renyi_sparse (Prng.create 21) ~n ~p:4e-4 in
  let m = Graph.n_edges er in
  check cb (Printf.sprintf "ER 10^4 density plausible (%d)" m) true
    (m > 17_000 && m < 23_000);
  let ba = Gen.barabasi_albert (Prng.create 22) ~n ~nmin:2 in
  check ci "BA 10^4 link count" (3 + (2 * (n - 4))) (Graph.n_edges ba);
  check cb "BA 10^4 connected" true (Traversal.is_connected ba);
  let wx = Gen.waxman_sparse (Prng.create 23) ~n ~alpha:0.15 ~beta:0.01 in
  check cb "Waxman 10^4 produces links" true (Graph.n_edges wx > n)

let prop_sparse_reproducible =
  QCheck2.Test.make ~name:"sparse generators: same seed, same edge list"
    ~count:40
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let er () = Gen.erdos_renyi_sparse (Prng.create seed) ~n:120 ~p:0.03 in
      let wx () =
        Gen.waxman_sparse (Prng.create seed) ~n:120 ~alpha:0.5 ~beta:0.2
      in
      edge_list (er ()) = edge_list (er ())
      && edge_list (wx ()) = edge_list (wx ()))

let prop_sparse_edges_valid =
  QCheck2.Test.make ~name:"sparse ER: edges are valid node pairs" ~count:40
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let g = Gen.erdos_renyi_sparse (Prng.create seed) ~n:80 ~p:0.05 in
      List.for_all
        (fun (u, v) -> 0 <= u && u < v && v < 80)
        (edge_list g))

let test_until_connected () =
  let rng = Prng.create 7 in
  let g =
    Gen.until_connected (fun () -> Gen.erdos_renyi rng ~n:30 ~p:0.15)
  in
  check cb "connected" true (Traversal.is_connected g);
  let draws = ref 0 in
  check cb "gives up after 1000 draws" true
    (try
       ignore
         (Gen.until_connected (fun () ->
              incr draws;
              Graph.of_edges ~nodes:[ 0; 1 ] []));
       false
     with Gen.Retries_exhausted { tries } -> tries = 1000 && !draws = 1000)

let test_fixtures () =
  check ci "complete K6 links" 15 (Graph.n_edges (Gen.complete 6));
  check ci "ring links" 7 (Graph.n_edges (Gen.ring 7));
  let g = Gen.grid 3 4 in
  check ci "grid nodes" 12 (Graph.n_nodes g);
  check ci "grid links" 17 (Graph.n_edges g);
  check cb "grid connected" true (Traversal.is_connected g)

let test_random_tree () =
  let rng = Prng.create 8 in
  let g = Gen.random_tree rng ~n:40 in
  check ci "tree links" 39 (Graph.n_edges g);
  check cb "connected" true (Traversal.is_connected g)

let prop_generators_reproducible =
  QCheck2.Test.make ~name:"same seed, same topology" ~count:50
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let g1 = Gen.barabasi_albert (Prng.create seed) ~n:30 ~nmin:2 in
      let g2 = Gen.barabasi_albert (Prng.create seed) ~n:30 ~nmin:2 in
      Graph.equal g1 g2)

let prop_ba_min_degree =
  QCheck2.Test.make ~name:"BA: non-seed nodes have degree ≥ nmin" ~count:50
    QCheck2.Gen.(pair (int_bound 1_000_000) (int_range 1 3))
    (fun (seed, nmin) ->
      let g = Gen.barabasi_albert (Prng.create seed) ~n:40 ~nmin in
      List.for_all (fun v -> Graph.degree g v >= nmin)
        (List.filter (fun v -> v >= 4) (Graph.nodes g)))

let suite =
  [
    Alcotest.test_case "ER extremes" `Quick test_erdos_renyi_extremes;
    Alcotest.test_case "ER density" `Quick test_erdos_renyi_density;
    Alcotest.test_case "RG geometric rule" `Quick test_random_geometric;
    Alcotest.test_case "BA construction" `Quick test_barabasi_albert;
    Alcotest.test_case "BA nmin=2 (sparse)" `Quick test_barabasi_albert_nmin2;
    Alcotest.test_case "PL construction" `Quick test_power_law;
    Alcotest.test_case "waxman" `Quick test_waxman;
    Alcotest.test_case "ER sparse (skip-sampling)" `Quick test_erdos_renyi_sparse;
    Alcotest.test_case "waxman sparse (thinning)" `Quick test_waxman_sparse;
    Alcotest.test_case "sparse generators at 10^4 nodes" `Quick
      test_sparse_generators_scale;
    Alcotest.test_case "until_connected" `Quick test_until_connected;
    QCheck_alcotest.to_alcotest prop_sparse_reproducible;
    QCheck_alcotest.to_alcotest prop_sparse_edges_valid;
    Alcotest.test_case "deterministic fixtures" `Quick test_fixtures;
    Alcotest.test_case "random tree" `Quick test_random_tree;
    QCheck_alcotest.to_alcotest prop_generators_reproducible;
    QCheck_alcotest.to_alcotest prop_ba_min_degree;
  ]
