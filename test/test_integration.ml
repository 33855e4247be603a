(* End-to-end scenarios across the whole stack, including the bundled
   topology fixtures in data/. *)

open Nettomo_graph
open Nettomo_topo
open Nettomo_core
module Prng = Nettomo_util.Prng
module Q = Nettomo_linalg.Rational
module Coverage = Nettomo_coverage.Coverage

let check = Alcotest.check
let ci = Alcotest.int
let cb = Alcotest.bool

let data file =
  (* The test binary runs inside _build; the dune rule copies data/ next
     to it. *)
  List.find Sys.file_exists
    [ "data/" ^ file; "../data/" ^ file; "../../data/" ^ file ]

let test_fig1_fixture_matches_paper () =
  let g = Edgelist.read_file (data "fig1.edges") in
  check cb "file equals the built-in Fig. 1" true
    (Graph.equal g (Net.graph Paper.fig1))

let test_fig8_fixture_matches_paper () =
  let g = Edgelist.read_file (data "fig8_like.edges") in
  check cb "file equals the built-in Fig. 8-like graph" true
    (Graph.equal g Paper.fig8_like)

let abilene () = Edgelist.read_file (data "abilene.edges")

let test_abilene_shape () =
  let g = abilene () in
  check ci "11 PoPs" 11 (Graph.n_nodes g);
  check ci "14 links" 14 (Graph.n_edges g);
  check cb "connected" true (Traversal.is_connected g);
  check cb "2-edge-connected (it is a ring of rings)" true
    (Bridges.is_two_edge_connected g)

let test_abilene_full_workflow () =
  (* place → check → simulate → recover, on a real research topology. *)
  let g = abilene () in
  let report = Mmp.place_report g in
  let monitors = Graph.NodeSet.elements report.Mmp.monitors in
  let net = Net.create g ~monitors in
  check cb "MMP placement identifiable" true
    (Identifiability.network_identifiable net);
  (* Abilene is sparse: every PoP has degree 2 or 3, so the degree rule
     forces many monitors. *)
  check cb "degree rule dominates" true
    (Graph.NodeSet.cardinal report.Mmp.by_degree >= 5);
  let rng = Prng.create 7 in
  let truth = Measurement.random_weights ~lo:1 ~hi:80 rng g in
  match Solver.recover ~rng net truth with
  | Some recovered ->
      check ci "all 14 links recovered" 14 (List.length recovered);
      check cb "exact" true
        (List.for_all
           (fun (e, w) -> Q.equal w (Measurement.weight truth e))
           recovered)
  | None -> Alcotest.fail "MMP placement must be identifiable"

let test_abilene_two_monitor_partial () =
  (* Seattle and New York as the only vantage points. *)
  let g = abilene () in
  let net = Net.create g ~monitors:[ 0; 10 ] in
  let r = Coverage.classify net in
  check cb "not everything identifiable" true (Coverage.coverage r < 1.0);
  (* Coast-to-coast monitors leave the exterior links dark (Cor 4.1). *)
  Graph.EdgeSet.iter
    (fun e ->
      check cb "exterior dark" true
        (Graph.EdgeSet.mem e r.Coverage.unidentifiable))
    (Interior.exterior_links net)

let test_generated_roundtrip_through_file () =
  (* gen → write → read → same MMP placement. *)
  let rng = Prng.create 99 in
  let g = Gen.barabasi_albert rng ~n:60 ~nmin:3 in
  let file = Filename.temp_file "nettomo" ".edges" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      Out_channel.with_open_bin file (fun oc ->
          Out_channel.output_string oc (Edgelist.to_string g));
      let g' = Edgelist.read_file file in
      check cb "roundtrip" true (Graph.equal g g');
      check Fixtures.nodeset_testable "same placement" (Mmp.place g) (Mmp.place g'))

let test_noisy_least_squares_on_abilene () =
  let g = abilene () in
  let net = Mmp.as_net g in
  let rng = Prng.create 5 in
  let truth = Measurement.random_weights ~lo:10 ~hi:60 rng g in
  match
    Noisy.recover_least_squares ~rng ~extra_paths:30 net truth ~sigma:1.0
      ~repetitions:50
  with
  | Some est ->
      check ci "all links estimated" 14 (List.length est);
      check cb
        (Printf.sprintf "error modest (%.3f)" (Noisy.max_abs_error est))
        true
        (Noisy.max_abs_error est < 2.0)
  | None -> Alcotest.fail "identifiable network"

let test_every_generator_yields_identifiable_mmp () =
  (* gen (all models) → MMP → identifiable. *)
  let rng = Prng.create 123 in
  let graphs =
    [
      ("er", Gen.until_connected (fun () -> Gen.erdos_renyi rng ~n:40 ~p:0.15));
      ("rg", Gen.until_connected (fun () -> Gen.random_geometric rng ~n:40 ~radius:0.35));
      ("ba", Gen.barabasi_albert rng ~n:40 ~nmin:2);
      ("pl", Gen.until_connected (fun () -> Gen.power_law rng ~n:40 ~alpha:0.5));
      ("waxman", Gen.until_connected (fun () -> Gen.waxman rng ~n:40 ~alpha:0.8 ~beta:0.6));
      ("grid", Gen.grid 6 6);
      ("ring", Gen.ring 12);
    ]
  in
  List.iter
    (fun (name, g) ->
      let net = Mmp.as_net g in
      check cb (name ^ " identifiable under MMP") true
        (Identifiability.network_identifiable net))
    graphs

let test_isp_full_pipeline () =
  let spec =
    {
      Isp.name = "it"; nodes = 40; links = 80; dangling_frac = 0.2;
      tandem_frac = 0.05; paper_r_mmp = 0.0;
    }
  in
  let rng = Prng.create 17 in
  let g = Isp.generate rng spec in
  let net = Mmp.as_net g in
  let truth = Measurement.random_weights rng g in
  (match Solver.recover ~rng net truth with
  | Some recovered ->
      check cb "exact recovery on ISP" true
        (List.for_all
           (fun (e, w) -> Q.equal w (Measurement.weight truth e))
           recovered)
  | None -> Alcotest.fail "identifiable");
  (* And the robustness sweep runs end to end. *)
  let r = Robustness.analyze net in
  check ci "sweep covered all links" (Graph.n_edges g) r.Robustness.total_links

let suite =
  [
    Alcotest.test_case "fig1 fixture = paper network" `Quick
      test_fig1_fixture_matches_paper;
    Alcotest.test_case "fig8 fixture = paper network" `Quick
      test_fig8_fixture_matches_paper;
    Alcotest.test_case "abilene shape" `Quick test_abilene_shape;
    Alcotest.test_case "abilene full workflow" `Quick test_abilene_full_workflow;
    Alcotest.test_case "abilene two-monitor partial view" `Quick
      test_abilene_two_monitor_partial;
    Alcotest.test_case "file roundtrip keeps placement" `Quick
      test_generated_roundtrip_through_file;
    Alcotest.test_case "noisy least squares on abilene" `Quick
      test_noisy_least_squares_on_abilene;
    Alcotest.test_case "all generators -> MMP -> identifiable" `Slow
      test_every_generator_yields_identifiable_mmp;
    Alcotest.test_case "ISP pipeline with robustness sweep" `Slow
      test_isp_full_pipeline;
  ]
