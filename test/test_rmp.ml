open Nettomo_graph
open Nettomo_core
module Prng = Nettomo_util.Prng

let check = Alcotest.check
let ci = Alcotest.int
let cb = Alcotest.bool

let test_place_size () =
  let rng = Prng.create 3 in
  let m = Rmp.place rng Fixtures.petersen ~kappa:4 in
  check ci "four monitors" 4 (Graph.NodeSet.cardinal m);
  Graph.NodeSet.iter
    (fun v -> check cb "monitor is a node" true (Graph.mem_node Fixtures.petersen v))
    m;
  Alcotest.check_raises "kappa too large" (Invalid_argument "Rmp.place: kappa out of range")
    (fun () -> ignore (Rmp.place rng Fixtures.petersen ~kappa:11))

let test_deterministic_under_seed () =
  let a = Rmp.place (Prng.create 9) Fixtures.petersen ~kappa:5 in
  let b = Rmp.place (Prng.create 9) Fixtures.petersen ~kappa:5 in
  check Fixtures.nodeset_testable "same seed, same placement" a b

let test_trial_on_3vc () =
  (* On a 3-vertex-connected graph any κ = 3 placement identifies
     (Theorem 3.3), so trials always succeed. *)
  let rng = Prng.create 11 in
  for _ = 1 to 20 do
    check cb "always succeeds" true (Rmp.trial rng Fixtures.petersen ~kappa:3)
  done

let test_trial_on_path () =
  (* On a path with any κ < n some node keeps degree < 3: never
     identifiable. *)
  let rng = Prng.create 12 in
  let g = Fixtures.path_graph 6 in
  for kappa = 2 to 5 do
    check cb "never succeeds" false (Rmp.trial rng g ~kappa)
  done

let test_success_fraction_bounds () =
  let rng = Prng.create 13 in
  let f =
    Rmp.success_fraction_par rng Fixtures.two_k4_by_pair ~kappa:3 ~runs:50
  in
  check cb "within [0,1]" true (f >= 0.0 && f <= 1.0);
  (* Two fused K4s need a monitor strictly inside each side plus a
     third; random 3-subsets succeed sometimes but not always. *)
  let f_all =
    Rmp.success_fraction_par rng Fixtures.two_k4_by_pair ~kappa:6 ~runs:20
  in
  check cb "all-nodes placement always works" true (f_all = 1.0)

let test_success_fraction_matches_exhaustive () =
  (* For K4 with κ=3 every subset works: fraction must be 1. *)
  let rng = Prng.create 14 in
  check (Alcotest.float 0.0) "k4 kappa=3" 1.0
    (Rmp.success_fraction_par rng Fixtures.k4 ~kappa:3 ~runs:40)

let test_single_node_graph_rejected () =
  (* Regression: asking for kappa = |V| on a single-node graph must be
     an immediate Invalid_argument — a graph without two distinct
     endpoints can't host any placement, so there is nothing to
     sample or retry. *)
  let g = Graph.add_node Graph.empty 0 in
  let rng = Prng.create 1 in
  let expected =
    Invalid_argument "Rmp.place: graph must have at least 2 nodes"
  in
  Alcotest.check_raises "kappa = node count" expected (fun () ->
      ignore (Rmp.place rng g ~kappa:1));
  Alcotest.check_raises "kappa = 0 is no better" expected (fun () ->
      ignore (Rmp.place rng g ~kappa:0));
  Alcotest.check_raises "trial inherits the guard" expected (fun () ->
      ignore (Rmp.trial rng g ~kappa:1))

let test_par_identical_across_jobs () =
  (* The whole point of the substream scheme: every job count (and the
     no-pool serial path) computes the same fraction from the same
     generator state, and advances the caller's generator identically. *)
  let g = Fixtures.two_k4_by_pair in
  let fractions_and_next jobs =
    let rng = Prng.create 77 in
    let f =
      match jobs with
      | None -> Rmp.success_fraction_par rng g ~kappa:3 ~runs:64
      | Some jobs ->
          Nettomo_util.Pool.with_pool ~jobs (fun pool ->
              Rmp.success_fraction_par ~pool rng g ~kappa:3 ~runs:64)
    in
    (f, Prng.bits64 rng)
  in
  let reference = fractions_and_next None in
  List.iter
    (fun jobs ->
      let f, next = fractions_and_next (Some jobs) in
      check (Alcotest.float 0.0)
        (Printf.sprintf "fraction identical at jobs=%d" jobs)
        (fst reference) f;
      check Alcotest.int64
        (Printf.sprintf "parent stream identical at jobs=%d" jobs)
        (snd reference) next)
    [ 1; 2; 4 ]

let test_par_bounds_and_exhaustive () =
  Nettomo_util.Pool.with_pool ~jobs:3 (fun pool ->
      let rng = Prng.create 14 in
      check (Alcotest.float 0.0) "K4 kappa=3 always identifiable" 1.0
        (Rmp.success_fraction_par ~pool rng Fixtures.k4 ~kappa:3 ~runs:40);
      let f =
        Rmp.success_fraction_par ~pool rng Fixtures.two_k4_by_pair ~kappa:3
          ~runs:50
      in
      check Alcotest.bool "within [0,1]" true (f >= 0.0 && f <= 1.0))

let prop_trial_matches_direct_test =
  QCheck2.Test.make ~name:"trial = placement + identifiability test" ~count:100
    QCheck2.Gen.(triple (int_bound 1_000_000) (int_range 4 15) (int_range 0 15))
    (fun (seed, n, extra) ->
      let rng = Prng.create seed in
      let g = Fixtures.random_connected rng n extra in
      let kappa = 3 + Prng.int rng (n - 2) in
      (* Re-deriving the same placement from a copied generator must give
         the same verdict as the library's own trial. *)
      let rng_copy = Prng.copy rng in
      let verdict = Rmp.trial rng g ~kappa in
      let monitors = Graph.NodeSet.elements (Rmp.place rng_copy g ~kappa) in
      let direct = Identifiability.network_identifiable (Net.create g ~monitors) in
      verdict = direct)

let suite =
  [
    Alcotest.test_case "placement size and membership" `Quick test_place_size;
    Alcotest.test_case "deterministic under seed" `Quick test_deterministic_under_seed;
    Alcotest.test_case "always succeeds on 3-connected" `Quick test_trial_on_3vc;
    Alcotest.test_case "never succeeds on a path" `Quick test_trial_on_path;
    Alcotest.test_case "success fraction bounds" `Quick test_success_fraction_bounds;
    Alcotest.test_case "success fraction on K4" `Quick
      test_success_fraction_matches_exhaustive;
    Alcotest.test_case "single-node graph rejected (regression)" `Quick
      test_single_node_graph_rejected;
    Alcotest.test_case "parallel fraction identical across jobs" `Quick
      test_par_identical_across_jobs;
    Alcotest.test_case "parallel fraction bounds / K4" `Quick
      test_par_bounds_and_exhaustive;
    QCheck_alcotest.to_alcotest prop_trial_matches_direct_test;
  ]
