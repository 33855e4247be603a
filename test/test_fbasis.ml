open Nettomo_linalg

(* The tests below write a row as its list of ascending columns; the
   basis takes them in an array with a length, which the ISP test feeds
   straight from the generator's buffer. *)
module Fbasis = struct
  include Fbasis

  let would_increase_rank t cols =
    let a = Array.of_list cols in
    would_increase_rank t a (Array.length a)

  let add t cols =
    let a = Array.of_list cols in
    add t a (Array.length a)
end

let check = Alcotest.check
let ci = Alcotest.int
let cb = Alcotest.bool

(* Fbasis takes a 0/1 row as the ascending columns where it is 1; the
   reference takes the dense vector. *)
let dense n cols =
  let v = Array.make n 0.0 in
  List.iter (fun j -> v.(j) <- 1.0) cols;
  v

(* A random 0/1 row over [n] columns as its ascending column list: each
   column is set with probability 1/[inv_density]. *)
let random_cols rng n inv_density =
  List.filter (fun _ -> Nettomo_util.Prng.int rng inv_density = 0) (List.init n Fun.id)

let test_empty () =
  let b = Fbasis.create 3 in
  check ci "rank 0" 0 (Fbasis.rank b);
  check ci "dimension" 3 (Fbasis.dimension b);
  check cb "zero rejected" false (Fbasis.would_increase_rank b []);
  check cb "nonzero accepted" true (Fbasis.would_increase_rank b [ 1 ])

let test_add_and_reject () =
  let b = Fbasis.create 4 in
  check cb "add 1" true (Fbasis.add b [ 0; 1 ]);
  check cb "add 2" true (Fbasis.add b [ 2; 3 ]);
  check cb "add 3" true (Fbasis.add b [ 0; 2 ]);
  (* e1 + e3 = (e0 + e1) + (e2 + e3) - (e0 + e2) *)
  check cb "dependent rejected" false (Fbasis.add b [ 1; 3 ]);
  check cb "independent accepted" true (Fbasis.add b [ 1 ]);
  check cb "full" true (Fbasis.is_full b);
  check cb "everything now dependent" false (Fbasis.would_increase_rank b [ 0; 1; 2; 3 ]);
  List.iter
    (fun cols ->
      Alcotest.check_raises "columns must be ascending and in range"
        (Invalid_argument "Fbasis: columns must be ascending and below the dimension")
        (fun () -> ignore (Fbasis.would_increase_rank b cols)))
    [ [ 1; 0 ]; [ 2; 2 ]; [ 4 ]; [ -1 ] ]

let test_near_zero_epsilon () =
  (* Reducing the third of these four rows against the basis they build
     leaves a rounding residual of about 6e-17 instead of 0.0 (the dense
     reference shows it): within the 1e-9 epsilon, so it is dependent. *)
  let rows = [ [ 1; 3; 4 ]; [ 0; 3; 4 ]; [ 0; 1; 2; 3 ]; [ 0; 1; 2; 4 ] ] in
  let b = Fbasis.create 5 and r = Oracles.Fbasis_ref.create 5 in
  List.iter
    (fun cols ->
      ignore (Fbasis.add b cols);
      ignore (Oracles.Fbasis_ref.add r (dense 5 cols)))
    rows;
  check ci "rank 4" 4 (Fbasis.rank b);
  let residual = Oracles.Fbasis_ref.reduce r (dense 5 [ 0; 1; 2; 3 ]) in
  let largest = Array.fold_left (fun m x -> Float.max m (Float.abs x)) 0.0 residual in
  check cb "rounding leaves a tiny nonzero residual" true (largest > 0.0 && largest <= 1e-9);
  check cb "residual within epsilon treated as dependent" false
    (Fbasis.would_increase_rank b [ 0; 1; 2; 3 ]);
  (* After e0+e1, e1+e2 and e0+e2+e3 (pivot 2, scaled by 1/2), the
     residual of e0 is -0.5·e3 and that of e3 is e3 itself. *)
  let b = Fbasis.create 4 in
  List.iter (fun cols -> ignore (Fbasis.add b cols)) [ [ 0; 1 ]; [ 1; 2 ]; [ 0; 2; 3 ] ];
  check cb "clear residual accepted" true (Fbasis.would_increase_rank b [ 3 ]);
  check cb "the half residual is accepted" true (Fbasis.would_increase_rank b [ 0 ])

let test_copy_independent () =
  let b = Fbasis.create 2 in
  ignore (Fbasis.add b [ 0 ]);
  let b2 = Fbasis.copy b in
  ignore (Fbasis.add b2 [ 1 ]);
  check ci "copy extended" 2 (Fbasis.rank b2);
  check ci "original untouched" 1 (Fbasis.rank b);
  check cb "original still accepts e1" true (Fbasis.would_increase_rank b [ 1 ]);
  check cb "copy rejects e1" false (Fbasis.would_increase_rank b2 [ 1 ])

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
        let cols = random_cols rng n 2 in
        let e =
          Basis.add exact
            (Array.init n (fun j -> if List.exists (Int.equal j) cols then Rational.one else Rational.zero))
        in
        let f = Fbasis.add fl cols in
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
        ignore (Fbasis.add b (random_cols rng n 2))
      done;
      Fbasis.rank b <= n)

(* Restricting the arithmetic to free columns and to the rows pivoted on
   a candidate's columns must not move a single verdict: the prefilter
   decides which rows the solver eliminates exactly, so any drift would
   change coverage answers. Sparse and denser 0/1 rows, with later rows
   often dependent. *)
let prop_matches_full_width_reference =
  QCheck2.Test.make
    ~name:"free-column basis matches the full-width reference" ~count:200
    QCheck2.Gen.(triple (int_bound 1_000_000) (int_range 1 40) bool)
    (fun (seed, n, sparse) ->
      let rng = Nettomo_util.Prng.create seed in
      let fast = Fbasis.create n and slow = Oracles.Fbasis_ref.create n in
      let row () = random_cols rng n (if sparse then 4 else 2) in
      let ok = ref true in
      for _ = 1 to 3 * n do
        let v = row () in
        let probe = row () in
        if
          Fbasis.would_increase_rank fast probe
          <> Oracles.Fbasis_ref.would_increase_rank slow (dense n probe)
          || Fbasis.add fast v <> Oracles.Fbasis_ref.add slow (dense n v)
        then ok := false
      done;
      let copy = Fbasis.copy fast in
      !ok
      && Fbasis.rank fast = Oracles.Fbasis_ref.rank slow
      && Fbasis.rank copy = Fbasis.rank fast)

(* Path-like rows (a few random columns each), probes interleaved with
   adds, then the same again on a copy of each basis: the column-row
   basis and the dense reference must give identical verdicts and rank
   throughout, and the copies must leave the originals alone. *)
let prop_column_rows_match_reference_through_copy =
  QCheck2.Test.make
    ~name:"column rows match the dense reference, through a copy" ~count:200
    QCheck2.Gen.(triple (int_bound 1_000_000) (int_range 1 48) (int_range 1 8))
    (fun (seed, n, width) ->
      let rng = Nettomo_util.Prng.create seed in
      let module R = Oracles.Fbasis_ref in
      let row () =
        List.sort_uniq Int.compare
          (List.init (1 + Nettomo_util.Prng.int rng width) (fun _ -> Nettomo_util.Prng.int rng n))
      in
      let agree fast slow =
        let ok = ref true in
        for _ = 1 to 2 * n do
          let probe = row () in
          let v = row () in
          if
            Fbasis.would_increase_rank fast probe <> R.would_increase_rank slow (dense n probe)
            || Fbasis.add fast v <> R.add slow (dense n v)
          then ok := false
        done;
        !ok && Fbasis.rank fast = R.rank slow
      in
      let fast = Fbasis.create n and slow = R.create n in
      let first = agree fast slow in
      let rank = Fbasis.rank fast in
      let fast' = Fbasis.copy fast and slow' = R.copy slow in
      let second = agree fast' slow' in
      let probe = row () in
      first && second
      && Fbasis.rank fast = rank
      && Fbasis.would_increase_rank fast probe = R.would_increase_rank slow (dense n probe))

(* The rows the coverage fallback actually feeds the prefilter: the
   spanning-tree seeds on the bench's ISP maps under a quarter and
   three quarters of their MMP placement. Every probe and every add
   must get the dense reference's decision, in order. *)
let test_isp_seed_rows_match_reference () =
  let module Csr = Nettomo_graph.Csr in
  let module Net = Nettomo_core.Net in
  let module R = Oracles.Fbasis_ref in
  List.iter
    (fun (name, seed) ->
      List.iter
        (fun (what, frac) ->
          let net = Fixtures.isp_prefix name seed frac in
          let csr = Csr.of_graph (Net.graph net) in
          let monitor = Array.map (Net.is_monitor net) csr.Csr.ids in
          let n = csr.Csr.m in
          let fast = Fbasis.create n and slow = R.create n in
          let steps = ref 0 and first_diff = ref None in
          Nettomo_measure.Paths.simple_candidates csr ~monitor (fun _ cols len ->
              let dense_row = dense n (Array.to_list (Array.sub cols 0 len)) in
              let probe = Nettomo_linalg.Fbasis.would_increase_rank fast cols len in
              let step = Nettomo_linalg.Fbasis.add fast cols len in
              if
                !first_diff = None
                && (probe <> R.would_increase_rank slow dense_row
                   || step <> R.add slow dense_row)
              then first_diff := Some !steps;
              incr steps);
          check (Alcotest.option ci)
            (Printf.sprintf "%s, %s of its MMP monitors: first differing step of %d" name what
               !steps)
            None !first_diff;
          check ci (name ^ " rank") (R.rank slow) (Fbasis.rank fast))
        [ ("a quarter", fun m -> m / 4); ("three quarters", fun m -> 3 * m / 4) ])
    [ ("Ebone", 50); ("Exodus", 54); ("Tiscali", 56) ]

let suite =
  [
    Alcotest.test_case "empty basis" `Quick test_empty;
    Alcotest.test_case "add and reject" `Quick test_add_and_reject;
    Alcotest.test_case "epsilon behaviour" `Quick test_near_zero_epsilon;
    Alcotest.test_case "copy independence" `Quick test_copy_independent;
    QCheck_alcotest.to_alcotest prop_agrees_with_exact_on_01;
    QCheck_alcotest.to_alcotest prop_rank_bounded;
    QCheck_alcotest.to_alcotest prop_matches_full_width_reference;
    QCheck_alcotest.to_alcotest prop_column_rows_match_reference_through_copy;
    Alcotest.test_case "ISP seed rows match the dense reference" `Quick
      test_isp_seed_rows_match_reference;
  ]
