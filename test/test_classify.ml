open Nettomo_graph
open Nettomo_core
open Nettomo_linalg
module Prng = Nettomo_util.Prng

let check = Alcotest.check
let ci = Alcotest.int
let cb = Alcotest.bool

let fig6_net = Net.create Fixtures.fig6 ~monitors:[ Fixtures.fig6_m1; Fixtures.fig6_m2 ]

(* --- Non-separating cycles (Definition 4, Fig. 6) ------------------- *)

let test_fig6_non_separating_examples () =
  (* The paper lists the four non-separating cycles of Fig. 6 (in our
     numbering: m1 = 0, m2 = 6, v1..v5 = 1..5). *)
  List.iter
    (fun c ->
      check cb
        (Printf.sprintf "cycle %s" (String.concat "-" (List.map string_of_int c)))
        true
        (Classify.is_non_separating_cycle fig6_net c))
    [
      [ 1; 2; 3 ];        (* v1 v2 v3 v1 *)
      [ 4; 3; 2; 5 ];     (* v4 v3 v2 v5 v4 *)
      [ 0; 1; 3; 4 ];     (* m1 v1 v3 v4 m1 *)
      [ 5; 2; 6 ];        (* v5 v2 m2 v5 *)
    ]

let test_fig6_counterexamples () =
  (* Not induced: v4 v3 v1 v2 v5 v4 (chord v2v3). *)
  check cb "chorded cycle rejected" false
    (Classify.is_non_separating_cycle fig6_net [ 4; 3; 1; 2; 5 ]);
  (* Separates v3 from the monitors: v4 m1 v1 v2 v5 v4. *)
  check cb "separating cycle rejected" false
    (Classify.is_non_separating_cycle fig6_net [ 4; 0; 1; 2; 5 ]);
  (* Not a cycle at all. *)
  check cb "non-cycle rejected" false
    (Classify.is_non_separating_cycle fig6_net [ 1; 2; 6 ]);
  check cb "too short" false (Classify.is_non_separating_cycle fig6_net [ 1; 2 ])

let test_fig6_enumeration () =
  let cycles = Classify.non_separating_cycles fig6_net in
  check ci "exactly the four cycles of the paper" 4 (List.length cycles);
  List.iter
    (fun c ->
      check cb "each enumerated cycle passes the predicate" true
        (Classify.is_non_separating_cycle fig6_net c))
    cycles

(* --- Cross-link / shortcut classification --------------------------- *)

let test_fig6_all_classified () =
  (* Fig. 6 satisfies Theorem 3.2's conditions, so every interior link
     must come out as a cross-link or a shortcut. *)
  check cb "conditions hold" true (Identifiability.interior_identifiable_two fig6_net);
  let kinds = Classify.classify fig6_net in
  check ci "all six interior links classified" 6 (Graph.EdgeMap.cardinal kinds);
  Graph.EdgeMap.iter
    (fun e kind ->
      check cb
        (Format.asprintf "%a classified" Graph.pp_edge e)
        true
        (kind <> Classify.Unclassified))
    kinds

let test_witness_paths_are_measurement_paths () =
  let kinds = Classify.classify fig6_net in
  Graph.EdgeMap.iter
    (fun _ kind ->
      match kind with
      | Classify.Cross_link w ->
          List.iter
            (fun p ->
              check cb "cross witness measurable" true
                (Measurement.is_measurement_path fig6_net p))
            [ w.pa; w.pb; w.pc; w.pd ]
      | Classify.Shortcut w ->
          List.iter
            (fun p ->
              check cb "shortcut witness measurable" true
                (Measurement.is_measurement_path fig6_net p))
            [ w.pa; w.pb ]
      | Classify.Unclassified -> ())
    kinds

let test_identify_formulas_exact () =
  (* Equations (7) and (9) recover the exact ground-truth metrics. *)
  let rng = Prng.create 21 in
  let truth = Measurement.random_weights ~lo:1 ~hi:30 rng Fixtures.fig6 in
  let recovered = Classify.identify fig6_net truth in
  check ci "all interior links identified" 6 (List.length recovered);
  List.iter
    (fun (e, w) ->
      check cb
        (Format.asprintf "metric of %a exact" Graph.pp_edge e)
        true
        (Rational.equal w (Measurement.weight truth e)))
    recovered

let test_requires_two_monitors () =
  check cb "three monitors rejected" true
    (try
       ignore (Classify.classify (Net.create Fixtures.fig6 ~monitors:[ 0; 6; 3 ]));
       false
     with Invalid_argument _ -> true)

let prop_identify_exact_on_random =
  QCheck2.Test.make
    ~name:"identification formulas are exact wherever links classify"
    ~count:40
    QCheck2.Gen.(triple (int_bound 1_000_000) (int_range 4 8) (int_range 2 8))
    (fun (seed, n, extra) ->
      let rng = Prng.create seed in
      let g = Fixtures.random_connected rng n extra in
      let net = Net.create g ~monitors:[ 0; n - 1 ] in
      let truth = Measurement.random_weights ~lo:1 ~hi:50 rng g in
      Classify.identify net truth
      |> List.for_all (fun (e, w) -> Rational.equal w (Measurement.weight truth e)))

let prop_classified_links_are_bruteforce_identifiable =
  QCheck2.Test.make
    ~name:"classified links are identifiable in the exact-rank sense"
    ~count:40
    QCheck2.Gen.(triple (int_bound 1_000_000) (int_range 4 8) (int_range 2 8))
    (fun (seed, n, extra) ->
      let rng = Prng.create seed in
      let g = Fixtures.random_connected rng n extra in
      let net = Net.create g ~monitors:[ 0; n - 1 ] in
      let identifiable = Identifiability.identifiable_links_bruteforce net in
      Classify.classify net
      |> Graph.EdgeMap.for_all (fun e kind ->
             kind = Classify.Unclassified || Graph.EdgeSet.mem e identifiable))

let prop_theorem_3_2_constructive =
  QCheck2.Test.make
    ~name:"under Theorem 3.2 conditions every interior link classifies"
    ~count:40
    QCheck2.Gen.(triple (int_bound 1_000_000) (int_range 4 8) (int_range 2 10))
    (fun (seed, n, extra) ->
      let rng = Prng.create seed in
      let g = Fixtures.random_connected rng n extra in
      let net = Net.create g ~monitors:[ 0; n - 1 ] in
      QCheck2.assume (Identifiability.interior_identifiable_two net);
      QCheck2.assume (not (Graph.EdgeSet.is_empty (Interior.interior_links net)));
      Classify.classify net
      |> Graph.EdgeMap.for_all (fun _ kind -> kind <> Classify.Unclassified))

let test_limit_guard () =
  (* Past 50,000 simple paths from a monitor to a node (K10 has 109,601
     between any two nodes) enumeration fails loudly, not silently. *)
  let net = Net.create (Nettomo_topo.Gen.complete 10) ~monitors:[ 0; 1 ] in
  check cb "limit raises" true
    (try
       ignore (Classify.classify net);
       false
     with Paths.Limit_exceeded -> true)

let test_non_separating_cycle_needs_monitored_components () =
  (* The whole graph as "cycle": not a cycle, rejected. *)
  check cb "not a cycle" false
    (Classify.is_non_separating_cycle fig6_net [ 0; 1; 2; 3; 4; 5; 6 ])

let suite =
  [
    Alcotest.test_case "fig6 non-separating cycles (paper list)" `Quick
      test_fig6_non_separating_examples;
    Alcotest.test_case "fig6 counterexamples" `Quick test_fig6_counterexamples;
    Alcotest.test_case "fig6 cycle enumeration" `Quick test_fig6_enumeration;
    Alcotest.test_case "fig6 all interior links classify" `Quick
      test_fig6_all_classified;
    Alcotest.test_case "witness paths are measurable" `Quick
      test_witness_paths_are_measurement_paths;
    Alcotest.test_case "identification formulas exact" `Quick
      test_identify_formulas_exact;
    Alcotest.test_case "requires two monitors" `Quick test_requires_two_monitors;
    Alcotest.test_case "path limit guard" `Quick test_limit_guard;
    Alcotest.test_case "non-cycle rejected" `Quick
      test_non_separating_cycle_needs_monitored_components;
    QCheck_alcotest.to_alcotest prop_identify_exact_on_random;
    QCheck_alcotest.to_alcotest prop_classified_links_are_bruteforce_identifiable;
    QCheck_alcotest.to_alcotest prop_theorem_3_2_constructive;
  ]
