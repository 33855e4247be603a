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

(* The sparse-row basis against the dense reference it replaced: after
   every add, the same answer and rank, the same residual for random
   probes (which pins every stored row), the same [mem_unit] on every
   column; then the same again on a copy of each, with the originals
   left as they were. Rows are path-like 0/1 rows or sparse small
   integers, and about a third are the sum of two earlier random rows,
   so many are dependent. *)
let prop_sparse_rows_match_dense_reference =
  QCheck2.Test.make ~name:"sparse rows = dense reference" ~count:200
    QCheck2.Gen.(triple (int_bound 1_000_000) (int_range 1 32) bool)
    (fun (seed, n, binary) ->
      (* Eliminating integer rows past ~16 columns runs into big
         rationals, which only slow the test down. *)
      let n = if binary then n else min n 16 in
      let rng = Nettomo_util.Prng.create seed in
      let module R = Oracles.Basis_ref in
      let random_row () =
        if binary then begin
          let v = Array.make n Rational.zero in
          for _ = 0 to Nettomo_util.Prng.int rng 6 do
            v.(Nettomo_util.Prng.int rng n) <- Rational.one
          done;
          v
        end
        else
          Array.init n (fun _ ->
              if Nettomo_util.Prng.int rng 3 = 0 then
                Rational.of_int (Nettomo_util.Prng.int_in rng (-3) 3)
              else Rational.zero)
      in
      let drawn = ref [||] in
      let next_row () =
        let k = Array.length !drawn in
        if k >= 2 && Nettomo_util.Prng.int rng 3 = 0 then
          Array.map2 Rational.add
            !drawn.(Nettomo_util.Prng.int rng k)
            !drawn.(Nettomo_util.Prng.int rng k)
        else begin
          let v = random_row () in
          drawn := Array.append !drawn [| v |];
          v
        end
      in
      let same_rows fast slow =
        let probe = random_row () in
        Array.for_all2 Rational.equal (Basis.reduce fast probe) (R.reduce slow probe)
        && Basis.mem fast probe = R.mem slow probe
        && List.for_all
             (fun j -> Basis.mem_unit fast j = R.mem_unit slow j)
             (List.init n Fun.id)
      in
      let agree fast slow =
        let ok = ref true in
        for _ = 1 to 2 * n do
          let v = next_row () in
          if
            Basis.add fast v <> R.add slow v
            || Basis.rank fast <> R.rank slow
            || not (same_rows fast slow)
          then ok := false
        done;
        !ok
      in
      let fast = Basis.create n and slow = R.create n in
      let first = agree fast slow in
      let rank = Basis.rank fast in
      let probe = random_row () in
      let residual = Basis.reduce fast probe in
      let second = agree (Basis.copy fast) (R.copy slow) in
      first && second
      && Basis.rank fast = rank
      && Array.for_all2 Rational.equal (Basis.reduce fast probe) residual
      && same_rows fast slow)

(* The column entry against the dense reference on 0/1 rows, with dense
   adds in between so both entries share the accumulator: path-like
   rows handed over as ascending columns in one reused buffer whose
   entries past the row's length are junk, many of them dependent as
   the rank nears n. After every add, the same answer and rank, the
   same [reduce] residual for a random probe, and the same [mem_unit]
   on every column. *)
let prop_column_entry_matches_dense_reference =
  QCheck2.Test.make ~name:"column entry = dense reference on 0/1 rows" ~count:200
    QCheck2.Gen.(pair (int_bound 1_000_000) (int_range 1 40))
    (fun (seed, n) ->
      let rng = Nettomo_util.Prng.create seed in
      let module R = Oracles.Basis_ref in
      let random_cols () =
        List.sort_uniq Int.compare
          (List.init
             (1 + Nettomo_util.Prng.int rng 6)
             (fun _ -> Nettomo_util.Prng.int rng n))
      in
      let dense cols =
        Array.init n (fun j -> if List.mem j cols then Rational.one else Rational.zero)
      in
      let buf = Array.make (n + 1) 0 in
      let fast = Basis.create n and slow = R.create n in
      let ok = ref true in
      for _ = 1 to 2 * n do
        let cols = random_cols () in
        let v = dense cols in
        let added =
          if Nettomo_util.Prng.int rng 4 = 0 then Basis.add fast v
          else begin
            let len = List.length cols in
            List.iteri (fun i j -> buf.(i) <- j) cols;
            buf.(len) <- Nettomo_util.Prng.int rng n;
            Basis.add_cols fast buf len
          end
        in
        let probe = dense (random_cols ()) in
        if
          added <> R.add slow v
          || Basis.rank fast <> R.rank slow
          || (not (Array.for_all2 Rational.equal (Basis.reduce fast probe) (R.reduce slow probe)))
          || not
               (List.for_all
                  (fun j -> Basis.mem_unit fast j = R.mem_unit slow j)
                  (List.init n Fun.id))
        then ok := false
      done;
      !ok)

let test_add_cols_rejects_bad_columns () =
  let b = Basis.create 4 in
  ignore (Basis.add_cols b [| 0; 2 |] 2);
  List.iter
    (fun cols ->
      Alcotest.check_raises "columns must be ascending and in range"
        (Invalid_argument "Basis.add_cols: columns must be ascending and below the dimension")
        (fun () -> ignore (Basis.add_cols b cols (Array.length cols))))
    [ [| 1; 0 |]; [| 2; 2 |]; [| 1; 4 |]; [| -1 |] ];
  check ci "rank unchanged" 1 (Basis.rank b);
  check cb "accumulator left clean" true (Basis.mem b (qrow [| 1; 0; 1; 0 |]));
  check cb "still independent" true (Basis.add_cols b [| 1; 3 |] 2)

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
    QCheck_alcotest.to_alcotest prop_sparse_rows_match_dense_reference;
    QCheck_alcotest.to_alcotest prop_column_entry_matches_dense_reference;
    Alcotest.test_case "column entry rejects bad columns" `Quick
      test_add_cols_rejects_bad_columns;
  ]
