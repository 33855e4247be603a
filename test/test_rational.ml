open Nettomo_linalg

let check = Alcotest.check
let cb = Alcotest.bool
let cs = Alcotest.string

let q = Alcotest.testable Rational.pp Rational.equal

let test_normalization () =
  check q "6/8 = 3/4" (Rational.of_ints 3 4) (Rational.of_ints 6 8);
  check q "negative denominator" (Rational.of_ints (-1) 2) (Rational.of_ints 1 (-2));
  check q "0/n = 0" Rational.zero (Rational.of_ints 0 17);
  check cs "den positive" "2" (Bigint.to_string (Rational.den (Rational.of_ints 1 (-2))));
  Alcotest.check_raises "zero denominator" Division_by_zero (fun () ->
      ignore (Rational.of_ints 1 0))

let test_arith () =
  let half = Rational.of_ints 1 2 and third = Rational.of_ints 1 3 in
  check q "1/2 + 1/3" (Rational.of_ints 5 6) (Rational.add half third);
  check q "1/2 - 1/3" (Rational.of_ints 1 6) (Rational.sub half third);
  check q "1/2 * 1/3" (Rational.of_ints 1 6) (Rational.mul half third);
  check q "neg" (Rational.of_ints (-1) 2) (Rational.neg half);
  check q "inv" (Rational.of_int 2) (Rational.inv half);
  Alcotest.check_raises "inv zero" Division_by_zero (fun () ->
      ignore (Rational.inv Rational.zero))

let test_compare () =
  check cb "1/2 < 2/3" true Rational.(compare (of_ints 1 2) (of_ints 2 3) < 0);
  check cb "-1/2 < 1/3" true Rational.(compare (of_ints (-1) 2) (of_ints 1 3) < 0);
  check cb "equal" true Rational.(compare (of_ints 2 4) (of_ints 1 2) = 0)

let test_predicates () =
  check cb "is_zero" true (Rational.is_zero Rational.zero);
  check cb "sign of -3/4" true (Rational.sign (Rational.of_ints (-3) 4) = -1)

let test_strings () =
  check cs "integer render" "5" (Rational.to_string (Rational.of_int 5));
  check cs "fraction render" "-3/4" (Rational.to_string (Rational.of_ints 3 (-4)))

let test_to_float () =
  check (Alcotest.float 1e-12) "to_float" 0.75
    (Rational.to_float (Rational.of_ints 3 4))

(* ------------------------------------------------------------------ *)
(* Operands around the small/big boundary                              *)

module Qref = Oracles.Qref

(* Native ints that straddle the small form's limit: plain small values,
   ±(2^30 − 1) and ±2^30 with a little jitter, magnitudes whose
   products land near 2^60–2^62, and the extremes of int. *)
let gen_int =
  QCheck2.Gen.(
    frequency
      [
        (3, int_range (-10_000) 10_000);
        ( 4,
          map3
            (fun base delta sign -> sign * (base + delta))
            (oneofl [ Rational.small_max; 1 lsl 30; 1 lsl 31 ])
            (int_range (-3) 3) (oneofl [ 1; -1 ]) );
        ( 2,
          map2 (fun m sign -> sign * m)
            (int_range (1 lsl 29) (1 lsl 31))
            (oneofl [ 1; -1 ]) );
        (1, oneofl [ max_int; min_int; max_int - 1; min_int + 1; 0; 1; -1 ]);
      ])

(* A value and its Bigint-only reference, built independently from the
   same ints. *)
let gen_leaf =
  QCheck2.Gen.map2
    (fun n d ->
      let d = if d = 0 then 1 else d in
      (Rational.of_ints n d, Qref.make (Bigint.of_int n) (Bigint.of_int d)))
    gen_int gen_int

(* Leaves plus one level of products and sums: big values with big
   denominators, and big values that cancel back into the small
   range. *)
let gen_pair =
  QCheck2.Gen.(
    frequency
      [
        (3, gen_leaf);
        ( 1,
          map2
            (fun (a, ra) (b, rb) -> (Rational.mul a b, Qref.mul ra rb))
            gen_leaf gen_leaf );
        ( 1,
          map2
            (fun (a, ra) (b, rb) -> (Rational.add a b, Qref.add ra rb))
            gen_leaf gen_leaf );
      ])

let gen_q = QCheck2.Gen.map fst gen_pair

let print_pair (a, _) = Rational.to_string a

let canonical q =
  match Invariant.check_rational q with
  | () -> true
  | exception Nettomo_util.Invariant.Violation _ -> false

(* [f] on the fast values agrees with [g] on the references, and the
   fast result is canonical; both raising Division_by_zero agrees. *)
let agrees_on f g =
  match f () with
  | q -> (
      match g () with
      | r -> canonical q && Qref.agrees q r
      | exception Division_by_zero -> false)
  | exception Division_by_zero -> (
      match g () with _ -> false | exception Division_by_zero -> true)

let binary_differential name f g =
  QCheck2.Test.make ~name:("small/big " ^ name ^ " matches Bigint reference")
    ~count:500
    ~print:(fun (a, b) -> print_pair a ^ ", " ^ print_pair b)
    QCheck2.Gen.(pair gen_pair gen_pair)
    (fun ((a, ra), (b, rb)) ->
      Qref.agrees a ra && Qref.agrees b rb
      && agrees_on (fun () -> f a b) (fun () -> g ra rb))

let unary_differential name f g =
  QCheck2.Test.make ~name:("small/big " ^ name ^ " matches Bigint reference")
    ~count:500 ~print:print_pair gen_pair (fun (a, ra) ->
      Qref.agrees a ra && agrees_on (fun () -> f a) (fun () -> g ra))

let prop_compare_differential =
  QCheck2.Test.make ~name:"small/big compare and equal match Bigint reference"
    ~count:500
    ~print:(fun (a, b) -> print_pair a ^ ", " ^ print_pair b)
    QCheck2.Gen.(pair gen_pair gen_pair)
    (fun ((a, ra), (b, rb)) ->
      let sgn x = Int.compare x 0 in
      sgn (Rational.compare a b) = sgn (Qref.compare ra rb)
      && Bool.equal (Rational.equal a b) (Qref.equal ra rb)
      && Rational.equal a a
      && sgn (Rational.compare a a) = 0)

let prop_render_differential =
  QCheck2.Test.make
    ~name:"small/big to_string and to_float match Bigint reference" ~count:500
    ~print:print_pair gen_pair (fun (a, ra) ->
      String.equal (Rational.to_string a) (Qref.to_string ra)
      && Int64.equal
           (Int64.bits_of_float (Rational.to_float a))
           (Int64.bits_of_float (Qref.to_float ra)))

let differentials =
  [
    binary_differential "add" Rational.add Qref.add;
    binary_differential "sub" Rational.sub Qref.sub;
    binary_differential "mul" Rational.mul Qref.mul;
    unary_differential "inv" Rational.inv Qref.inv;
    unary_differential "neg" Rational.neg Qref.neg;
    prop_compare_differential;
    prop_render_differential;
  ]

let test_boundary () =
  let m = Rational.small_max in
  let small q = Rational.is_small q in
  check cb "2^30-1 is small" true (small (Rational.of_int m));
  check cb "-(2^30-1) is small" true (small (Rational.of_int (-m)));
  check cb "2^30 is big" false (small (Rational.of_int (m + 1)));
  check cb "1/(2^30-1) is small" true (small (Rational.of_ints 1 m));
  check cb "1/2^30 is big" false (small (Rational.of_ints 1 (m + 1)));
  check cb "2^30/2 reduces to small" true (small (Rational.of_ints (m + 1) 2));
  check cb "max_int is big" false (small (Rational.of_int max_int));
  check cb "min_int is big" false (small (Rational.of_int min_int));
  (* Products of small values near 2^60 leave the small form, and big
     values that cancel come back to it. *)
  let big = Rational.mul (Rational.of_int m) (Rational.of_int m) in
  check cb "(2^30-1)^2 is big" false (small big);
  check cs "(2^30-1)^2 exact" "1152921502459363329" (Rational.to_string big);
  check cb "big / big back to small" true
    (small (Rational.mul big (Rational.inv (Rational.of_int m))));
  check q "big - big = 0" Rational.zero (Rational.sub big big);
  check cb "zero is small" true (small (Rational.sub big big));
  check q "min_int / min_int = 1" Rational.one (Rational.of_ints min_int min_int);
  check cs "max_int render" (string_of_int max_int)
    (Rational.to_string (Rational.of_int max_int));
  check cs "min_int render" (string_of_int min_int)
    (Rational.to_string (Rational.of_int min_int))

let prop_field_axioms =
  QCheck2.Test.make ~name:"field identities" ~count:300
    QCheck2.Gen.(triple gen_q gen_q gen_q)
    (fun (a, b, c) ->
      let open Rational in
      equal (add a b) (add b a)
      && equal (add (add a b) c) (add a (add b c))
      && equal (mul a (add b c)) (add (mul a b) (mul a c))
      && equal (add a (neg a)) zero
      && equal (mul a one) a)

let prop_inverse =
  QCheck2.Test.make ~name:"multiplicative inverse" ~count:300 gen_q (fun a ->
      QCheck2.assume (not (Rational.is_zero a));
      Rational.(equal (mul a (inv a)) one))

let prop_compare_consistent_with_sub =
  QCheck2.Test.make ~name:"compare consistent with subtraction sign" ~count:300
    (QCheck2.Gen.pair gen_q gen_q) (fun (a, b) ->
      Rational.compare a b = Rational.sign (Rational.sub a b))

let suite =
  [
    Alcotest.test_case "normalization" `Quick test_normalization;
    Alcotest.test_case "arithmetic" `Quick test_arith;
    Alcotest.test_case "comparison" `Quick test_compare;
    Alcotest.test_case "predicates" `Quick test_predicates;
    Alcotest.test_case "strings" `Quick test_strings;
    Alcotest.test_case "to_float" `Quick test_to_float;
    QCheck_alcotest.to_alcotest prop_field_axioms;
    QCheck_alcotest.to_alcotest prop_inverse;
    QCheck_alcotest.to_alcotest prop_compare_consistent_with_sub;
    Alcotest.test_case "small/big boundary" `Quick test_boundary;
  ]
  @ List.map (fun t -> QCheck_alcotest.to_alcotest t) differentials
