open Nettomo_linalg

let check = Alcotest.check
let ci = Alcotest.int
let cb = Alcotest.bool

let qrow = Array.map Rational.of_int

let test_empty () =
  let b = Basis.create 4 in
  check ci "rank 0" 0 (Basis.rank b);
  check ci "dimension" 4 (Basis.dimension b);
  check cb "not full" false (Basis.is_full b);
  check cb "zero vector in span" true (Basis.mem b (qrow [| 0; 0; 0; 0 |]));
  check cb "nonzero not in span" false (Basis.mem b (qrow [| 1; 0; 0; 0 |]))

let test_add_independent () =
  let b = Basis.create 3 in
  check cb "first add" true (Basis.add b (qrow [| 1; 1; 0 |]));
  check cb "second add" true (Basis.add b (qrow [| 0; 1; 1 |]));
  check ci "rank 2" 2 (Basis.rank b);
  check cb "dependent rejected" false (Basis.add b (qrow [| 1; 2; 1 |]));
  check ci "rank still 2" 2 (Basis.rank b);
  check cb "independent accepted" true (Basis.add b (qrow [| 0; 0; 1 |]));
  check cb "full now" true (Basis.is_full b);
  check cb "everything in span" true (Basis.mem b (qrow [| 5; -2; 7 |]))

let test_mem () =
  let b = Basis.create 3 in
  ignore (Basis.add b (qrow [| 1; 1; 0 |]));
  ignore (Basis.add b (qrow [| 0; 1; 1 |]));
  check cb "combination in span" true (Basis.mem b (qrow [| 2; 3; 1 |]));
  check cb "outside span" false (Basis.mem b (qrow [| 1; 0; 0 |]))

let test_reduce_residual () =
  let b = Basis.create 3 in
  ignore (Basis.add b (qrow [| 1; 0; 0 |]));
  let res = Basis.reduce b (qrow [| 3; 4; 0 |]) in
  check cb "first coordinate eliminated" true (Rational.is_zero res.(0));
  check cb "rest survives" false (Rational.is_zero res.(1))

let test_copy_independent () =
  let b = Basis.create 2 in
  ignore (Basis.add b (qrow [| 1; 0 |]));
  let b2 = Basis.copy b in
  ignore (Basis.add b2 (qrow [| 0; 1 |]));
  check ci "copy extended" 2 (Basis.rank b2);
  check ci "original untouched" 1 (Basis.rank b)

let test_add_does_not_retain_input () =
  let b = Basis.create 2 in
  let v = qrow [| 1; 1 |] in
  ignore (Basis.add b v);
  v.(1) <- Rational.of_int 99;
  check cb "mutating input does not corrupt basis" true
    (Basis.mem b (qrow [| 2; 2 |]))

let prop_rank_matches_matrix =
  QCheck2.Test.make ~name:"incremental rank matches Matrix.rank" ~count:200
    QCheck2.Gen.(triple (int_bound 100_000) (int_range 1 6) (int_range 1 8))
    (fun (seed, n, rows) ->
      let rng = Nettomo_util.Prng.create seed in
      let vs =
        Array.init rows (fun _ ->
            Array.init n (fun _ -> Rational.of_int (Nettomo_util.Prng.int_in rng (-3) 3)))
      in
      let b = Basis.create n in
      Array.iter (fun v -> ignore (Basis.add b v)) vs;
      Basis.rank b = Matrix.rank (Matrix.of_rows vs))

let prop_mem_iff_rank_unchanged =
  QCheck2.Test.make ~name:"mem iff adding does not raise rank" ~count:200
    QCheck2.Gen.(triple (int_bound 100_000) (int_range 1 6) (int_range 0 6))
    (fun (seed, n, rows) ->
      let rng = Nettomo_util.Prng.create seed in
      let b = Basis.create n in
      for _ = 1 to rows do
        ignore
          (Basis.add b
             (Array.init n (fun _ ->
                  Rational.of_int (Nettomo_util.Prng.int_in rng (-3) 3))))
      done;
      let v =
        Array.init n (fun _ -> Rational.of_int (Nettomo_util.Prng.int_in rng (-3) 3))
      in
      let b2 = Basis.copy b in
      Basis.mem b v = not (Basis.add b2 v))

(* Unit-row membership read off the echelon rows must agree with
   reducing the dense unit row, for every column. Small entries and
   often-deficient bases (rows up to 2n, some of them 0/1 incidence-like)
   make both answers common. *)
let prop_mem_unit_matches_mem =
  QCheck2.Test.make ~name:"mem_unit = mem on unit rows" ~count:300
    QCheck2.Gen.(triple (int_bound 100_000) (int_range 1 9) (int_range 0 18))
    (fun (seed, n, rows) ->
      let rng = Nettomo_util.Prng.create seed in
      let b = Basis.create n in
      let binary = Nettomo_util.Prng.bool rng in
      for _ = 1 to rows do
        ignore
          (Basis.add b
             (Array.init n (fun _ ->
                  Rational.of_int
                    (if binary then Nettomo_util.Prng.int rng 2
                     else Nettomo_util.Prng.int_in rng (-3) 3))))
      done;
      List.for_all
        (fun j ->
          let unit = Array.make n Rational.zero in
          unit.(j) <- Rational.one;
          Basis.mem_unit b j = Basis.mem b unit)
        (List.init n Fun.id))

let suite =
  [
    Alcotest.test_case "empty basis" `Quick test_empty;
    Alcotest.test_case "add independent rows" `Quick test_add_independent;
    Alcotest.test_case "membership" `Quick test_mem;
    Alcotest.test_case "reduce residual" `Quick test_reduce_residual;
    Alcotest.test_case "copy is independent" `Quick test_copy_independent;
    Alcotest.test_case "input not retained" `Quick test_add_does_not_retain_input;
    QCheck_alcotest.to_alcotest prop_rank_matches_matrix;
    QCheck_alcotest.to_alcotest prop_mem_iff_rank_unchanged;
    QCheck_alcotest.to_alcotest prop_mem_unit_matches_mem;
  ]
