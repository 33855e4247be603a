(* The debug invariant layer: every verifier accepts the seed fixtures
   and rejects deliberately corrupted structures; the MMP postcondition
   (Theorem 3.3 on Gex) is exercised on fig1, fig8_like and abilene. *)

open Nettomo_graph
open Nettomo_topo
open Nettomo_core
module I = Nettomo_util.Invariant
module Q = Nettomo_linalg.Rational
module Matrix = Nettomo_linalg.Matrix
module Basis = Nettomo_linalg.Basis
module Linv = Nettomo_linalg.Invariant

let check = Alcotest.check
let cb = Alcotest.bool

let data file =
  List.find Sys.file_exists
    [ "data/" ^ file; "../data/" ^ file; "../../data/" ^ file ]

let abilene () = Edgelist.read_file (data "abilene.edges")

let accepts f = match f () with () -> true | exception I.Violation _ -> false

let rejects f = match f () with () -> false | exception I.Violation _ -> true

let test_switch () =
  I.with_enabled false (fun () ->
      check cb "gated thunk skipped when disabled" true
        (match I.check (fun () -> I.violation "boom") with
        | () -> true
        | exception I.Violation _ -> false));
  I.with_enabled true (fun () ->
      check cb "gated thunk runs when enabled" true
        (rejects (fun () -> I.check (fun () -> I.violation "boom"))));
  I.with_enabled false (fun () ->
      check cb "with_enabled restores" true
        (I.with_enabled true (fun () -> I.enabled ()) && not (I.enabled ())))

let test_graph_accepts_fixtures () =
  List.iter
    (fun (name, g) ->
      check cb name true (accepts (fun () -> Graph.Invariant.check g)))
    [
      ("empty", Graph.empty);
      ("fig1", Net.graph Paper.fig1);
      ("fig6", Net.graph Paper.fig6);
      ("fig8_like", Paper.fig8_like);
      ("petersen", Fixtures.petersen);
      ("wheel5", Fixtures.wheel5);
      ("abilene", abilene ());
    ]

let test_graph_rejects_corrupted () =
  let g = Fixtures.k4 in
  check cb "wrong cached link count" true
    (rejects (fun () ->
         Graph.Invariant.check (Graph.Invariant.Testing.with_edge_count g 17)));
  check cb "asymmetric adjacency" true
    (rejects (fun () ->
         Graph.Invariant.check (Graph.Invariant.Testing.with_half_edge g 0 9)));
  check cb "self-loop" true
    (rejects (fun () ->
         Graph.Invariant.check (Graph.Invariant.Testing.with_self_loop g 2)))

let test_linalg_accepts () =
  let space = Measurement.space (Net.graph Paper.fig1) in
  let r = Measurement.matrix space Paper.fig1_paths in
  check cb "measurement matrix" true (accepts (fun () -> Linv.check_matrix r));
  check cb "rationals" true
    (accepts (fun () -> Linv.check_vector [| Q.of_ints 6 4; Q.zero; Q.of_int 3 |]));
  let b = Basis.create 5 in
  ignore (Basis.add b [| Q.one; Q.zero; Q.zero; Q.of_int 2; Q.zero |]);
  ignore (Basis.add b [| Q.zero; Q.one; Q.zero; Q.zero; Q.zero |]);
  check cb "basis" true (accepts (fun () -> Linv.check_basis b));
  check cb "well-matched system" true
    (accepts (fun () ->
         Linv.check_system r (Array.make (Matrix.rows r) Q.one)))

let test_linalg_rejects () =
  let space = Measurement.space (Net.graph Paper.fig1) in
  let r = Measurement.matrix space Paper.fig1_paths in
  check cb "mismatched system" true
    (rejects (fun () ->
         Linv.check_system r (Array.make (Matrix.rows r + 2) Q.one)))

let test_rational_canonical_form () =
  let module B = Nettomo_linalg.Bigint in
  let big n d = Q.Testing.big (B.of_int n) (B.of_int d) in
  let m = Q.small_max in
  (* Every value built through the interface is canonical, on both
     sides of the boundary. *)
  check cb "small and big values accepted" true
    (accepts (fun () ->
         Linv.check_vector
           [|
             Q.of_int m; Q.of_int (m + 1); Q.of_ints 1 (m + 1);
             Q.mul (Q.of_int m) (Q.of_int m); Q.of_int min_int;
             Q.of_ints (m + 1) 2;
           |]));
  (* Big-form values that break the representation invariants. *)
  check cb "small-range value stored big rejected" true
    (rejects (fun () -> Linv.check_rational (big 3 4)));
  check cb "boundary value stored big rejected" true
    (rejects (fun () -> Linv.check_rational (big (-m) m)));
  check cb "zero stored big rejected" true
    (rejects (fun () -> Linv.check_rational (big 0 1)));
  check cb "big value in lowest terms accepted" true
    (accepts (fun () -> Linv.check_rational (big (m + 1) 3)));
  check cb "big value not in lowest terms rejected" true
    (rejects (fun () -> Linv.check_rational (big (2 * (m + 1)) 4)));
  check cb "big value with negative denominator rejected" true
    (rejects (fun () -> Linv.check_rational (big (m + 1) (-3))));
  check cb "vector holding a non-canonical entry rejected" true
    (rejects (fun () -> Linv.check_vector [| Q.one; big 1 2 |]))

let test_measurement_coherence () =
  let net = Paper.fig1 in
  let space = Measurement.space (Net.graph net) in
  let r = Measurement.matrix space Paper.fig1_paths in
  check cb "matrix matches its path set" true
    (accepts (fun () -> Invariant.check_measurement space Paper.fig1_paths r));
  (* Corrupt: reorder the path list under the same matrix. *)
  let shuffled = List.rev Paper.fig1_paths in
  check cb "reordered paths rejected" true
    (rejects (fun () -> Invariant.check_measurement space shuffled r));
  (* Corrupt: drop a path so row/path counts disagree. *)
  check cb "missing path rejected" true
    (rejects (fun () ->
         Invariant.check_measurement space (List.tl Paper.fig1_paths) r))

let test_net_and_plan () =
  let net = Paper.fig1 in
  check cb "fig1 net" true (accepts (fun () -> Invariant.check_net net));
  let plan = Solver.independent_paths ~rng:(Nettomo_util.Prng.create 11) net in
  check cb "solver plan" true (accepts (fun () -> Invariant.check_plan net plan));
  let lying = { plan with Solver.rank = plan.Solver.rank + 1 } in
  check cb "plan with wrong rank rejected" true
    (rejects (fun () -> Invariant.check_plan net lying))

let test_mmp_postcondition () =
  (* Theorem 3.3 on Gex, on the three bundled fixtures. *)
  List.iter
    (fun (name, g) ->
      check cb (name ^ " placement passes") true
        (accepts (fun () -> Invariant.check_mmp g (Mmp.place g)));
      check cb (name ^ " place() self-check runs when enabled") true
        (accepts (fun () ->
             I.with_enabled true (fun () -> ignore (Mmp.place g)))))
    [
      ("fig1", Net.graph Paper.fig1);
      ("fig8_like", Paper.fig8_like);
      ("abilene", abilene ());
    ]

let test_mmp_rejects_bad_placements () =
  let g = Paper.fig8_like in
  let report = Mmp.place_report g in
  check cb "empty placement rejected" true
    (rejects (fun () -> Invariant.check_mmp g Graph.NodeSet.empty));
  check cb "non-node monitor rejected" true
    (rejects (fun () ->
         Invariant.check_mmp g (Graph.NodeSet.singleton 999)));
  (* Algorithm 1 yields a minimum placement, so removing any rule-(iii)
     or rule-(iv) monitor must break the Theorem 3.3 postcondition while
     leaving the degree rule intact. *)
  let structural =
    Graph.NodeSet.union report.Mmp.by_triconnected report.Mmp.by_biconnected
  in
  if not (Graph.NodeSet.is_empty structural) then begin
    let dropped = Graph.NodeSet.min_elt structural in
    check cb "minimal placement minus one rejected (Gex not 3vc)" true
      (rejects (fun () ->
           Invariant.check_mmp g
             (Graph.NodeSet.remove dropped report.Mmp.monitors)))
  end;
  (* Dropping a degree-rule monitor violates rules (i)-(ii). *)
  if not (Graph.NodeSet.is_empty report.Mmp.by_degree) then begin
    let dropped = Graph.NodeSet.min_elt report.Mmp.by_degree in
    check cb "degree<3 node without monitor rejected" true
      (rejects (fun () ->
           Invariant.check_mmp g
             (Graph.NodeSet.remove dropped report.Mmp.monitors)))
  end

let suite =
  [
    Alcotest.test_case "enable switch" `Quick test_switch;
    Alcotest.test_case "graph accepts fixtures" `Quick test_graph_accepts_fixtures;
    Alcotest.test_case "graph rejects corrupted" `Quick test_graph_rejects_corrupted;
    Alcotest.test_case "linalg accepts" `Quick test_linalg_accepts;
    Alcotest.test_case "linalg rejects" `Quick test_linalg_rejects;
    Alcotest.test_case "measurement coherence" `Quick test_measurement_coherence;
    Alcotest.test_case "net and solver plan" `Quick test_net_and_plan;
    Alcotest.test_case "mmp postcondition (Thm 3.3)" `Quick test_mmp_postcondition;
    Alcotest.test_case "mmp rejects bad placements" `Quick
      test_mmp_rejects_bad_placements;
    Alcotest.test_case "rational canonical form" `Quick
      test_rational_canonical_form;
  ]
