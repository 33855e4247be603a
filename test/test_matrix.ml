open Nettomo_linalg

let check = Alcotest.check
let ci = Alcotest.int
let cb = Alcotest.bool

let q = Alcotest.testable Rational.pp Rational.equal

let qi = Rational.of_int

let identity n =
  Matrix.of_int_rows (Array.init n (fun i -> Array.init n (fun j -> Bool.to_int (i = j))))

(* [a·x] for a matrix given by its rows. *)
let mul_vec rows x =
  Array.map
    (fun r ->
      let acc = ref Rational.zero in
      Array.iteri (fun j v -> acc := Rational.add !acc (Rational.mul v x.(j))) r;
      !acc)
    rows

let test_identity_rank () =
  check ci "rank of I5" 5 (Matrix.rank (identity 5));
  let b = [| qi 3; qi (-1); qi 0; qi 7; qi 2 |] in
  check (Alcotest.option (Alcotest.array q)) "I5 x = b gives b" (Some b)
    (Matrix.solve (identity 5) b)

let test_rank_known () =
  check ci "rank of dependent rows" 2
    (Matrix.rank (Matrix.of_int_rows [| [| 1; 2; 3 |]; [| 2; 4; 6 |]; [| 0; 1; 1 |] |]));
  check ci "rank of zero matrix" 0
    (Matrix.rank (Matrix.of_int_rows (Array.make_matrix 3 4 0)));
  check ci "wide full-row-rank" 2
    (Matrix.rank (Matrix.of_int_rows [| [| 1; 0; 5 |]; [| 0; 1; 7 |] |]))

let test_solve_square () =
  (* x + 2y = 5, 3x + 4y = 11  →  x = 1, y = 2. *)
  let a = Matrix.of_int_rows [| [| 1; 2 |]; [| 3; 4 |] |] in
  match Matrix.solve a [| qi 5; qi 11 |] with
  | Some x -> check (Alcotest.array q) "solution" [| qi 1; qi 2 |] x
  | None -> Alcotest.fail "expected solution"

let test_solve_overdetermined () =
  (* Consistent overdetermined system. *)
  let a = Matrix.of_int_rows [| [| 1; 0 |]; [| 0; 1 |]; [| 1; 1 |] |] in
  (match Matrix.solve a [| qi 2; qi 3; qi 5 |] with
  | Some x -> check (Alcotest.array q) "solution" [| qi 2; qi 3 |] x
  | None -> Alcotest.fail "expected solution");
  (* Inconsistent right-hand side. *)
  check cb "inconsistent" true (Matrix.solve a [| qi 2; qi 3; qi 6 |] = None)

let test_solve_rank_deficient () =
  let a = Matrix.of_int_rows [| [| 1; 1 |]; [| 2; 2 |] |] in
  Alcotest.check_raises "rank-deficient rejected"
    (Invalid_argument "Matrix.solve: matrix does not have full column rank")
    (fun () -> ignore (Matrix.solve a [| qi 1; qi 2 |]))

let test_of_rows_copies () =
  let rows = [| [| Rational.one |] |] in
  let a = Matrix.of_rows rows in
  rows.(0).(0) <- Rational.zero;
  check q "input mutation ignored" Rational.one (Matrix.get a 0 0)

let random_int_rows rng rows cols bound =
  Array.init rows (fun _ ->
      Array.init cols (fun _ -> Nettomo_util.Prng.int_in rng (-bound) bound))

let prop_rank_bounds =
  QCheck2.Test.make ~name:"rank ≤ min(m,n); transpose preserves rank" ~count:200
    QCheck2.Gen.(triple (int_bound 100_000) (int_range 1 7) (int_range 1 7))
    (fun (seed, rows, cols) ->
      let rng = Nettomo_util.Prng.create seed in
      let a = random_int_rows rng rows cols 5 in
      let t = Array.init cols (fun j -> Array.init rows (fun i -> a.(i).(j))) in
      let r = Matrix.rank (Matrix.of_int_rows a) in
      r <= min rows cols && Matrix.rank (Matrix.of_int_rows t) = r)

let prop_solve_roundtrip =
  QCheck2.Test.make ~name:"solve recovers planted solution" ~count:200
    QCheck2.Gen.(pair (int_bound 100_000) (int_range 1 7))
    (fun (seed, n) ->
      let rng = Nettomo_util.Prng.create seed in
      let a = Matrix.of_int_rows (random_int_rows rng n n 5) in
      QCheck2.assume (Matrix.rank a = n);
      let x = Array.init n (fun _ -> Rational.of_int (Nettomo_util.Prng.int_in rng (-9) 9)) in
      let b = mul_vec (Matrix.to_rows a) x in
      match Matrix.solve a b with
      | Some y -> Array.for_all2 Rational.equal x y
      | None -> false)

(* The inverse column by column: [solve a e_j] for every unit vector.
   Full rank gives [a·a⁻¹ = I]; below full rank [solve] finds no
   solution ([None] when [e_0] is outside the column space, a raise
   otherwise). *)
let prop_inverse_roundtrip =
  QCheck2.Test.make ~name:"inverse roundtrip" ~count:150
    QCheck2.Gen.(pair (int_bound 100_000) (int_range 1 6))
    (fun (seed, n) ->
      let rng = Nettomo_util.Prng.create seed in
      let a = Matrix.of_int_rows (random_int_rows rng n n 5) in
      let unit j = Array.init n (fun i -> if i = j then Rational.one else Rational.zero) in
      if Matrix.rank a < n then
        match Matrix.solve a (unit 0) with
        | Some _ -> false
        | None | (exception Invalid_argument _) -> true
      else
        let cols = Array.init n (fun j -> Option.get (Matrix.solve a (unit j))) in
        let rows = Matrix.to_rows a in
        Array.for_all
          (fun j -> Array.for_all2 Rational.equal (mul_vec rows cols.(j)) (unit j))
          (Array.init n Fun.id))

let suite =
  [
    Alcotest.test_case "identity" `Quick test_identity_rank;
    Alcotest.test_case "rank of known matrices" `Quick test_rank_known;
    Alcotest.test_case "solve square" `Quick test_solve_square;
    Alcotest.test_case "solve overdetermined" `Quick test_solve_overdetermined;
    Alcotest.test_case "solve rank-deficient" `Quick test_solve_rank_deficient;
    Alcotest.test_case "of_rows copies input" `Quick test_of_rows_copies;
    QCheck_alcotest.to_alcotest prop_rank_bounds;
    QCheck_alcotest.to_alcotest prop_solve_roundtrip;
    QCheck_alcotest.to_alcotest prop_inverse_roundtrip;
  ]
