open Nettomo_util

let check = Alcotest.check
let ci = Alcotest.int
let cb = Alcotest.bool

let test_determinism () =
  let a = Prng.create 123 and b = Prng.create 123 in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Prng.bits64 a) (Prng.bits64 b)
  done

let test_seeds_differ () =
  let a = Prng.create 1 and b = Prng.create 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Prng.bits64 a = Prng.bits64 b then incr same
  done;
  check ci "streams differ" 0 !same

let test_int_bounds () =
  let rng = Prng.create 5 in
  for _ = 1 to 1000 do
    let x = Prng.int rng 7 in
    check cb "in range" true (x >= 0 && x < 7)
  done;
  Alcotest.check_raises "zero bound"
    (Invalid_argument "Prng.int: bound must be positive") (fun () ->
      ignore (Prng.int rng 0))

let test_int_in () =
  let rng = Prng.create 6 in
  for _ = 1 to 1000 do
    let x = Prng.int_in rng (-3) 3 in
    check cb "in range" true (x >= -3 && x <= 3)
  done

let test_int_uniformity () =
  (* Coarse chi-square-ish sanity: each of 8 buckets should get
     a reasonable share of 8000 draws. *)
  let rng = Prng.create 99 in
  let buckets = Array.make 8 0 in
  for _ = 1 to 8000 do
    let x = Prng.int rng 8 in
    buckets.(x) <- buckets.(x) + 1
  done;
  Array.iteri
    (fun i c ->
      check cb (Printf.sprintf "bucket %d balanced (%d)" i c) true
        (c > 800 && c < 1200))
    buckets

let test_float_bounds () =
  let rng = Prng.create 7 in
  for _ = 1 to 1000 do
    let x = Prng.float rng 2.5 in
    check cb "in range" true (x >= 0.0 && x < 2.5)
  done

let test_bernoulli_extremes () =
  let rng = Prng.create 8 in
  for _ = 1 to 100 do
    check cb "p=0 never" false (Prng.bernoulli rng 0.0)
  done;
  let hits = ref 0 in
  for _ = 1 to 1000 do
    if Prng.bernoulli rng 0.3 then incr hits
  done;
  check cb "p=0.3 plausible" true (!hits > 200 && !hits < 400)

let test_shuffle_permutation () =
  let rng = Prng.create 9 in
  let arr = Array.init 20 Fun.id in
  Prng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  check (Alcotest.array ci) "still a permutation" (Array.init 20 Fun.id) sorted

let test_sample () =
  let rng = Prng.create 10 in
  let arr = Array.init 10 Fun.id in
  let s = Prng.sample rng 4 arr in
  check ci "four elements" 4 (Array.length s);
  let distinct = List.sort_uniq compare (Array.to_list s) in
  check ci "distinct" 4 (List.length distinct);
  check (Alcotest.array ci) "source unchanged" (Array.init 10 Fun.id) arr;
  Alcotest.check_raises "k too large"
    (Invalid_argument "Prng.sample: k out of range") (fun () ->
      ignore (Prng.sample rng 11 arr))

let test_sample_covers () =
  (* Sampling 1 of 5 many times should hit every element. *)
  let rng = Prng.create 11 in
  let seen = Array.make 5 false in
  for _ = 1 to 200 do
    let s = Prng.sample rng 1 (Array.init 5 Fun.id) in
    seen.(s.(0)) <- true
  done;
  check cb "all hit" true (Array.for_all Fun.id seen)

let test_choose () =
  let rng = Prng.create 13 in
  check cb "choose member" true
    (Array.mem (Prng.choose rng [| 1; 2; 3 |]) [| 1; 2; 3 |])

let suite =
  [
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "different seeds differ" `Quick test_seeds_differ;
    Alcotest.test_case "int bounds" `Quick test_int_bounds;
    Alcotest.test_case "int_in bounds" `Quick test_int_in;
    Alcotest.test_case "int coarse uniformity" `Quick test_int_uniformity;
    Alcotest.test_case "float bounds" `Quick test_float_bounds;
    Alcotest.test_case "bernoulli" `Quick test_bernoulli_extremes;
    Alcotest.test_case "shuffle is a permutation" `Quick test_shuffle_permutation;
    Alcotest.test_case "sample without replacement" `Quick test_sample;
    Alcotest.test_case "sample covers support" `Quick test_sample_covers;
    Alcotest.test_case "choose" `Quick test_choose;
  ]
