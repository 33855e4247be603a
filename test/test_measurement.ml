open Nettomo_graph
open Nettomo_core
open Nettomo_linalg

let check = Alcotest.check
let ci = Alcotest.int
let cb = Alcotest.bool
let q = Alcotest.testable Rational.pp Rational.equal

let fig1_net =
  Net.create Fixtures.fig1 ~monitors:[ Fixtures.fig1_m1; Fixtures.fig1_m2; Fixtures.fig1_m3 ]

(* The eleven measurement paths of the Section 2.3 example, as node
   sequences in our node numbering (m1 = 0, m2 = 1, m3 = 2, a = 3,
   b = 4, c = 5, x = 6). *)
let fig1_paths =
  [
    [ 0; 4; 5; 6; 1 ];       (* m1→m2: l1 l4 l8 l11 *)
    [ 0; 4; 5; 2 ];          (* m1→m3: l1 l4 l7 *)
    [ 0; 3; 4; 5; 2 ];       (* l2 l3 l4 l7 *)
    [ 0; 3; 5; 6; 2 ];       (* l2 l5 l8 l10 *)
    [ 0; 3; 2 ];             (* l2 l6 *)
    [ 0; 3; 5; 2 ];          (* l2 l5 l7 *)
    [ 0; 4; 3; 2 ];          (* l1 l3 l6 *)
    [ 0; 4; 5; 3; 2 ];       (* l1 l4 l5 l6 *)
    [ 2; 1 ];                (* m3→m2: l9 *)
    [ 2; 6; 1 ];             (* l10 l11 *)
    [ 2; 3; 5; 6; 1 ];       (* l6 l5 l8 l11 *)
  ]

let test_space () =
  let s = Measurement.space Fixtures.fig1 in
  check ci "eleven links" 11 (Measurement.n_links s);
  let order = Measurement.link_order s in
  Array.iteri
    (fun j e -> check ci (Printf.sprintf "column of link %d" j) j (Measurement.column s e))
    order;
  check cb "unknown link" true
    (try
       ignore (Measurement.column s (Graph.edge 0 6));
       false
     with Not_found -> true)

let test_path_validation () =
  check cb "valid measurement path" true
    (Measurement.is_measurement_path fig1_net [ 0; 4; 5; 2 ]);
  check cb "must start at monitor" false
    (Measurement.is_measurement_path fig1_net [ 3; 5; 2 ]);
  check cb "through a monitor is fine (still simple)" true
    (Measurement.is_measurement_path fig1_net [ 0; 3; 2; 1 ]);
  check cb "non-simple rejected" false
    (Measurement.is_measurement_path fig1_net [ 0; 3; 4; 3; 2 ]);
  (match Measurement.check_measurement_path fig1_net [ 3; 5; 2 ] with
  | Error e -> check Alcotest.string "error message" "path does not start at a monitor" e
  | Ok () -> Alcotest.fail "expected error")

let test_all_fig1_paths_valid () =
  List.iter
    (fun p ->
      check cb
        (Printf.sprintf "path %s valid" (String.concat "-" (List.map string_of_int p)))
        true
        (Measurement.is_measurement_path fig1_net p))
    fig1_paths

let test_incidence_row () =
  let s = Measurement.space Fixtures.fig1 in
  let row = Measurement.incidence_row s [ 2; 1 ] in
  let ones = Array.to_list row |> List.filter (fun x -> not (Rational.is_zero x)) in
  check ci "single-link path has one 1" 1 (List.length ones);
  check q "entry is at l9's column" Rational.one row.(Measurement.column s (Graph.edge 2 1));
  (* The row is one at exactly the path's link columns. *)
  List.iter
    (fun p ->
      let row = Measurement.incidence_row s p in
      let ones =
        List.filter (fun j -> not (Rational.is_zero row.(j)))
          (List.init (Array.length row) Fun.id)
      in
      check (Alcotest.list ci) "columns are the row's ones" ones
        (List.sort Int.compare
           (List.map (Measurement.column s) (Nettomo_graph.Paths.path_edges p))))
    fig1_paths

let test_fig1_matrix_invertible () =
  (* The headline claim of Section 2.3: these eleven paths make R
     invertible, so all metrics are uniquely identified. *)
  let s = Measurement.space Fixtures.fig1 in
  let r = Measurement.matrix s fig1_paths in
  check ci "11x11" 11 (Matrix.rows r);
  check ci "full rank" 11 (Matrix.rank r)

let test_measure () =
  let rng = Nettomo_util.Prng.create 77 in
  let w = Measurement.random_weights ~lo:1 ~hi:9 rng Fixtures.fig1 in
  let p = [ 0; 3; 2 ] in
  let expected =
    Rational.add
      (Measurement.weight w (Graph.edge 0 3))
      (Measurement.weight w (Graph.edge 3 2))
  in
  check q "path metric is the sum" expected (Measurement.measure w p);
  let c = Measurement.measure_all w fig1_paths in
  check ci "one measurement per path" (List.length fig1_paths) (Array.length c)

let test_random_weights_cover () =
  let rng = Nettomo_util.Prng.create 1 in
  let w = Measurement.random_weights rng Fixtures.fig1 in
  Graph.iter_edges
    (fun e ->
      let x = Measurement.weight w e in
      check cb "positive" true (Rational.sign x > 0))
    Fixtures.fig1

let suite =
  [
    Alcotest.test_case "link space" `Quick test_space;
    Alcotest.test_case "path validation" `Quick test_path_validation;
    Alcotest.test_case "fig1 paths valid" `Quick test_all_fig1_paths_valid;
    Alcotest.test_case "incidence row" `Quick test_incidence_row;
    Alcotest.test_case "fig1 R is invertible (Section 2.3)" `Quick
      test_fig1_matrix_invertible;
    Alcotest.test_case "measure sums link metrics" `Quick test_measure;
    Alcotest.test_case "random weights cover links" `Quick test_random_weights_cover;
  ]
