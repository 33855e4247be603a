open Nettomo_linalg

let check = Alcotest.check
let cb = Alcotest.bool
let cf = Alcotest.float 1e-9

let test_solve_square () =
  let a = Fmatrix.of_rows [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  match Fmatrix.solve a [| 5.0; 11.0 |] with
  | Some x ->
      check cf "x" 1.0 x.(0);
      check cf "y" 2.0 x.(1)
  | None -> Alcotest.fail "solvable"

let test_solve_singular () =
  let a = Fmatrix.of_rows [| [| 1.0; 2.0 |]; [| 2.0; 4.0 |] |] in
  check cb "singular detected" true (Fmatrix.solve a [| 1.0; 2.0 |] = None)

let test_solve_needs_pivoting () =
  (* Zero on the diagonal: only works with pivoting. *)
  let a = Fmatrix.of_rows [| [| 0.0; 1.0 |]; [| 1.0; 0.0 |] |] in
  match Fmatrix.solve a [| 3.0; 7.0 |] with
  | Some x ->
      check cf "x" 7.0 x.(0);
      check cf "y" 3.0 x.(1)
  | None -> Alcotest.fail "solvable with pivoting"

let test_least_squares_exact () =
  (* Consistent overdetermined system has zero residual. *)
  let a = Fmatrix.of_rows [| [| 1.0; 0.0 |]; [| 0.0; 1.0 |]; [| 1.0; 1.0 |] |] in
  match Fmatrix.least_squares a [| 2.0; 3.0; 5.0 |] with
  | Some x ->
      check cf "x" 2.0 x.(0);
      check cf "y" 3.0 x.(1);
      check cf "residual" 0.0 (Fmatrix.residual_norm a x [| 2.0; 3.0; 5.0 |])
  | None -> Alcotest.fail "full column rank"

let test_least_squares_fit () =
  (* Fit a constant to noisy observations: the LS answer is the mean. *)
  let a = Fmatrix.of_rows [| [| 1.0 |]; [| 1.0 |]; [| 1.0 |]; [| 1.0 |] |] in
  match Fmatrix.least_squares a [| 1.0; 2.0; 3.0; 6.0 |] with
  | Some x -> check cf "mean" 3.0 x.(0)
  | None -> Alcotest.fail "full column rank"

let test_of_matrix () =
  let m = Matrix.of_int_rows [| [| 1; 2 |]; [| 3; 4 |] |] in
  let f = Fmatrix.of_matrix m in
  check cf "entry" 3.0 (Fmatrix.get f 1 0);
  check Alcotest.int "rows" 2 (Fmatrix.rows f);
  check Alcotest.int "cols" 2 (Fmatrix.cols f)

let test_mul_vec_transpose () =
  let a = Fmatrix.of_rows [| [| 1.0; 2.0; 3.0 |]; [| 4.0; 5.0; 6.0 |] |] in
  let v = Fmatrix.mul_vec a [| 1.0; 1.0; 1.0 |] in
  check cf "row sums" 6.0 v.(0);
  check cf "row sums" 15.0 v.(1);
  let t = Fmatrix.transpose a in
  check Alcotest.int "transposed rows" 3 (Fmatrix.rows t);
  check cf "moved entry" 6.0 (Fmatrix.get t 2 1)

let prop_matches_exact_solver =
  QCheck2.Test.make ~name:"float solve matches exact solve" ~count:150
    QCheck2.Gen.(pair (int_bound 1_000_000) (int_range 1 6))
    (fun (seed, n) ->
      let rng = Nettomo_util.Prng.create seed in
      let entries =
        Array.init n (fun _ ->
            Array.init n (fun _ -> Nettomo_util.Prng.int_in rng (-5) 5))
      in
      let exact = Matrix.of_int_rows entries in
      QCheck2.assume (Matrix.rank exact = n);
      let b = Array.init n (fun i -> float_of_int (i + 1)) in
      let bq = Array.map (fun x -> Rational.of_ints (int_of_float x) 1) b in
      match (Fmatrix.solve (Fmatrix.of_matrix exact) b, Matrix.solve exact bq) with
      | Some xf, Some xq ->
          Array.for_all2
            (fun f q -> Float.abs (f -. Rational.to_float q) < 1e-6)
            xf xq
      | _ -> false)

let suite =
  [
    Alcotest.test_case "solve square" `Quick test_solve_square;
    Alcotest.test_case "solve singular" `Quick test_solve_singular;
    Alcotest.test_case "solve needs pivoting" `Quick test_solve_needs_pivoting;
    Alcotest.test_case "least squares exact" `Quick test_least_squares_exact;
    Alcotest.test_case "least squares fit" `Quick test_least_squares_fit;
    Alcotest.test_case "of_matrix" `Quick test_of_matrix;
    Alcotest.test_case "mul_vec and transpose" `Quick test_mul_vec_transpose;
    QCheck_alcotest.to_alcotest prop_matches_exact_solver;
  ]
