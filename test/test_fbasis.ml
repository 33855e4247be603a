open Nettomo_linalg

let check = Alcotest.check
let ci = Alcotest.int
let cb = Alcotest.bool

let frow = Array.map float_of_int

let test_empty () =
  let b = Fbasis.create 3 in
  check ci "rank 0" 0 (Fbasis.rank b);
  check ci "dimension" 3 (Fbasis.dimension b);
  check cb "zero rejected" false (Fbasis.would_increase_rank b (frow [| 0; 0; 0 |]));
  check cb "nonzero accepted" true (Fbasis.would_increase_rank b (frow [| 0; 1; 0 |]))

let test_add_and_reject () =
  let b = Fbasis.create 3 in
  check cb "add 1" true (Fbasis.add b (frow [| 1; 1; 0 |]));
  check cb "add 2" true (Fbasis.add b (frow [| 0; 1; 1 |]));
  check cb "dependent rejected" false (Fbasis.add b (frow [| 1; 2; 1 |]));
  check cb "independent accepted" true (Fbasis.add b (frow [| 1; 0; 0 |]));
  check cb "full" true (Fbasis.is_full b);
  check cb "everything now dependent" false
    (Fbasis.would_increase_rank b (frow [| 3; -7; 2 |]))

let test_near_zero_epsilon () =
  let b = Fbasis.create 2 in
  ignore (Fbasis.add b [| 1.0; 0.0 |]);
  check cb "tiny residual treated as dependent" false
    (Fbasis.would_increase_rank b [| 1.0; 1e-12 |]);
  check cb "clear residual accepted" true
    (Fbasis.would_increase_rank b [| 1.0; 0.5 |])

let test_copy_independent () =
  let b = Fbasis.create 2 in
  ignore (Fbasis.add b [| 1.0; 0.0 |]);
  let b2 = Fbasis.copy b in
  ignore (Fbasis.add b2 [| 0.0; 1.0 |]);
  check ci "copy extended" 2 (Fbasis.rank b2);
  check ci "original untouched" 1 (Fbasis.rank b)

(* The whole point of Fbasis: on 0/1 incidence-like rows it must agree
   with the exact basis. *)
let prop_agrees_with_exact_on_01 =
  QCheck2.Test.make ~name:"float basis agrees with exact basis on 0/1 rows"
    ~count:300
    QCheck2.Gen.(triple (int_bound 1_000_000) (int_range 1 10) (int_range 1 14))
    (fun (seed, n, rows) ->
      let rng = Nettomo_util.Prng.create seed in
      let exact = Basis.create n in
      let fl = Fbasis.create n in
      let ok = ref true in
      for _ = 1 to rows do
        let bits = Array.init n (fun _ -> Nettomo_util.Prng.int rng 2) in
        let e = Basis.add exact (Array.map Rational.of_int bits) in
        let f = Fbasis.add fl (Array.map float_of_int bits) in
        if e <> f then ok := false
      done;
      !ok && Basis.rank exact = Fbasis.rank fl)

let prop_rank_bounded =
  QCheck2.Test.make ~name:"rank never exceeds dimension" ~count:200
    QCheck2.Gen.(pair (int_bound 1_000_000) (int_range 1 8))
    (fun (seed, n) ->
      let rng = Nettomo_util.Prng.create seed in
      let b = Fbasis.create n in
      for _ = 1 to 3 * n do
        ignore
          (Fbasis.add b
             (Array.init n (fun _ ->
                  float_of_int (Nettomo_util.Prng.int_in rng (-5) 5))))
      done;
      Fbasis.rank b <= n)

(* Restricting the arithmetic to free columns must not move a single
   verdict: the prefilter decides which rows the solver eliminates
   exactly, so any drift would change coverage answers. Sparse 0/1 rows
   (as the solver offers) and small-integer rows (fractional pivots,
   partial pivoting at work), with later rows often dependent. *)
let prop_matches_full_width_reference =
  QCheck2.Test.make
    ~name:"free-column basis matches the full-width reference" ~count:200
    QCheck2.Gen.(triple (int_bound 1_000_000) (int_range 1 40) bool)
    (fun (seed, n, sparse) ->
      let rng = Nettomo_util.Prng.create seed in
      let fast = Fbasis.create n and slow = Oracles.Fbasis_ref.create n in
      let row () =
        if sparse then
          Array.init n (fun _ ->
              if Nettomo_util.Prng.int rng 4 = 0 then 1.0 else 0.0)
        else
          Array.init n (fun _ ->
              float_of_int (Nettomo_util.Prng.int_in rng (-3) 3))
      in
      let ok = ref true in
      for _ = 1 to 3 * n do
        let v = row () in
        let probe = row () in
        if
          Fbasis.would_increase_rank fast probe
          <> Oracles.Fbasis_ref.would_increase_rank slow probe
          || Fbasis.add fast v <> Oracles.Fbasis_ref.add slow v
        then ok := false
      done;
      let copy = Fbasis.copy fast in
      !ok
      && Fbasis.rank fast = Oracles.Fbasis_ref.rank slow
      && Fbasis.rank copy = Fbasis.rank fast)

let suite =
  [
    Alcotest.test_case "empty basis" `Quick test_empty;
    Alcotest.test_case "add and reject" `Quick test_add_and_reject;
    Alcotest.test_case "epsilon behaviour" `Quick test_near_zero_epsilon;
    Alcotest.test_case "copy independence" `Quick test_copy_independent;
    QCheck_alcotest.to_alcotest prop_agrees_with_exact_on_01;
    QCheck_alcotest.to_alcotest prop_rank_bounded;
    QCheck_alcotest.to_alcotest prop_matches_full_width_reference;
  ]
