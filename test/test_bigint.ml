open Nettomo_linalg

let check = Alcotest.check
let cb = Alcotest.bool
let cs = Alcotest.string

let bi =
  Alcotest.testable
    (fun ppf b -> Format.pp_print_string ppf (Bigint.to_string b))
    Bigint.equal

let test_of_int_roundtrip () =
  List.iter
    (fun n ->
      match Bigint.to_int (Bigint.of_int n) with
      | Some m -> check Alcotest.int (Printf.sprintf "roundtrip %d" n) n m
      | None -> Alcotest.fail (Printf.sprintf "roundtrip %d lost" n))
    [ 0; 1; -1; 42; -42; 1 lsl 29; 1 lsl 30; (1 lsl 30) + 17; max_int; min_int;
      max_int - 1; min_int + 1; 999_999_999_999 ]

let test_to_string () =
  check cs "zero" "0" (Bigint.to_string Bigint.zero);
  check cs "small" "12345" (Bigint.to_string (Bigint.of_int 12345));
  check cs "negative" "-7" (Bigint.to_string (Bigint.of_int (-7)));
  check cs "max_int" (string_of_int max_int) (Bigint.to_string (Bigint.of_int max_int))

let test_of_string () =
  check bi "parse" (Bigint.of_int 98765) (Bigint.of_string "98765");
  check bi "parse negative" (Bigint.of_int (-31)) (Bigint.of_string "-31");
  check bi "leading zeros" (Bigint.of_int 7) (Bigint.of_string "007");
  let big = "123456789012345678901234567890" in
  check cs "huge roundtrip" big (Bigint.to_string (Bigint.of_string big));
  Alcotest.check_raises "garbage"
    (Invalid_argument "Bigint.of_string: malformed integer") (fun () ->
      ignore (Bigint.of_string "12x4"));
  Alcotest.check_raises "empty"
    (Invalid_argument "Bigint.of_string: malformed integer") (fun () ->
      ignore (Bigint.of_string ""))

let test_add_sub_known () =
  let a = Bigint.of_string "99999999999999999999" in
  let b = Bigint.of_int 1 in
  check cs "carry chain" "100000000000000000000" Bigint.(to_string (add a b));
  check cs "sub back" "99999999999999999999"
    Bigint.(to_string (sub (add a b) b));
  check bi "a - a = 0" Bigint.zero (Bigint.sub a a);
  check cs "negative result" "-1" Bigint.(to_string (sub (of_int 4) (of_int 5)))

let test_mul_known () =
  let a = Bigint.of_string "123456789" and b = Bigint.of_string "987654321" in
  check cs "mul" "121932631112635269" Bigint.(to_string (mul a b));
  let big = Bigint.of_string "123456789012345678901234567890" in
  check cs "square"
    "15241578753238836750495351562536198787501905199875019052100"
    Bigint.(to_string (mul big big));
  check bi "mul by zero" Bigint.zero (Bigint.mul a Bigint.zero);
  check cs "signs" "-121932631112635269" Bigint.(to_string (mul (neg a) b))

let test_divmod_known () =
  let a = Bigint.of_string "1000000000000000000000" in
  let b = Bigint.of_string "999999999" in
  let q, r = Bigint.divmod a b in
  check bi "a = q*b + r" a Bigint.(add (mul q b) r);
  check cb "0 ≤ r < b" true Bigint.(compare r zero >= 0 && compare r b < 0);
  check cs "div exact" "500"
    Bigint.(to_string (div (of_int 1000) (of_int 2)));
  check cs "truncation" "3" Bigint.(to_string (div (of_int 7) (of_int 2)));
  check cs "negative truncates toward zero" "-3"
    Bigint.(to_string (div (of_int (-7)) (of_int 2)));
  check cs "rem sign follows dividend" "-1"
    Bigint.(to_string (rem (of_int (-7)) (of_int 2)));
  Alcotest.check_raises "division by zero" Division_by_zero (fun () ->
      ignore (Bigint.div Bigint.one Bigint.zero))

let test_compare () =
  check cb "1 < 2" true Bigint.(compare (of_int 1) (of_int 2) < 0);
  check cb "-5 < 3" true Bigint.(compare (of_int (-5)) (of_int 3) < 0);
  check cb "-5 < -3" true Bigint.(compare (of_int (-5)) (of_int (-3)) < 0);
  check cb "equal" true Bigint.(compare (of_int 17) (of_int 17) = 0);
  check cb "magnitude order" true
    Bigint.(compare (of_string "100000000000000000000") (of_int max_int) > 0)

let test_gcd () =
  check bi "gcd 12 18" (Bigint.of_int 6) Bigint.(gcd (of_int 12) (of_int 18));
  check bi "gcd with negatives" (Bigint.of_int 6)
    Bigint.(gcd (of_int (-12)) (of_int 18));
  check bi "gcd 0 n" (Bigint.of_int 5) Bigint.(gcd zero (of_int 5));
  check bi "gcd 0 0" Bigint.zero Bigint.(gcd zero zero);
  check bi "coprime" Bigint.one Bigint.(gcd (of_int 35) (of_int 64))

let test_to_int_overflow () =
  check cb "huge does not fit" true
    (Bigint.to_int (Bigint.of_string "123456789012345678901234567890") = None);
  check cb "max_int + 1 does not fit" true
    (Bigint.to_int Bigint.(add (of_int max_int) one) = None)

let test_to_float () =
  check (Alcotest.float 1e-6) "to_float small" 42.0
    (Bigint.to_float (Bigint.of_int 42));
  check (Alcotest.float 1e9) "to_float big" 1e20
    (Bigint.to_float (Bigint.of_string "100000000000000000000"))

let gen_pair = QCheck2.Gen.(pair (int_range (-1_000_000_000) 1_000_000_000)
                              (int_range (-1_000_000_000) 1_000_000_000))

let prop_add_matches_native =
  QCheck2.Test.make ~name:"add matches native ints" ~count:500 gen_pair
    (fun (a, b) ->
      Bigint.equal (Bigint.add (Bigint.of_int a) (Bigint.of_int b))
        (Bigint.of_int (a + b)))

let prop_mul_matches_native =
  QCheck2.Test.make ~name:"mul matches native ints" ~count:500 gen_pair
    (fun (a, b) ->
      Bigint.equal (Bigint.mul (Bigint.of_int a) (Bigint.of_int b))
        (Bigint.of_int (a * b)))

let prop_divmod_matches_native =
  QCheck2.Test.make ~name:"divmod matches native ints" ~count:500 gen_pair
    (fun (a, b) ->
      QCheck2.assume (b <> 0);
      let q, r = Bigint.divmod (Bigint.of_int a) (Bigint.of_int b) in
      Bigint.equal q (Bigint.of_int (a / b)) && Bigint.equal r (Bigint.of_int (a mod b)))

let prop_string_roundtrip =
  QCheck2.Test.make ~name:"decimal string roundtrip" ~count:300
    QCheck2.Gen.(list_size (int_range 1 40) (int_range 0 9))
    (fun digits ->
      let s = String.concat "" (List.map string_of_int digits) in
      let canonical =
        let t = String.to_seq s |> Seq.drop_while (fun c -> c = '0') |> String.of_seq in
        if t = "" then "0" else t
      in
      Bigint.to_string (Bigint.of_string s) = canonical)

(* Big-number algebra: (a+b)*(a-b) = a² - b² exercises carries/borrows. *)
let prop_difference_of_squares =
  QCheck2.Test.make ~name:"(a+b)(a-b) = a² - b² on big operands" ~count:200
    QCheck2.Gen.(pair (list_size (int_range 1 25) (int_range 0 9))
                   (list_size (int_range 1 25) (int_range 0 9)))
    (fun (da, db) ->
      let parse ds = Bigint.of_string (String.concat "" (List.map string_of_int ds)) in
      let a = parse da and b = parse db in
      Bigint.equal
        (Bigint.mul (Bigint.add a b) (Bigint.sub a b))
        (Bigint.sub (Bigint.mul a a) (Bigint.mul b b)))

let prop_divmod_invariant_big =
  QCheck2.Test.make ~name:"a = q·b + r with |r| < |b| on big operands" ~count:200
    QCheck2.Gen.(pair (list_size (int_range 1 30) (int_range 0 9))
                   (list_size (int_range 1 15) (int_range 0 9)))
    (fun (da, db) ->
      let parse ds = Bigint.of_string (String.concat "" (List.map string_of_int ds)) in
      let a = parse da and b = parse db in
      QCheck2.assume (not (Bigint.is_zero b));
      let q, r = Bigint.divmod a b in
      Bigint.equal a (Bigint.add (Bigint.mul q b) r)
      && Bigint.compare (Bigint.abs r) (Bigint.abs b) < 0)

let prop_gcd_divides =
  QCheck2.Test.make ~name:"gcd divides both and is maximal-ish" ~count:300 gen_pair
    (fun (a, b) ->
      QCheck2.assume (a <> 0 || b <> 0);
      let g = Bigint.gcd (Bigint.of_int a) (Bigint.of_int b) in
      Bigint.is_zero (Bigint.rem (Bigint.of_int a) g)
      && Bigint.is_zero (Bigint.rem (Bigint.of_int b) g)
      && Bigint.sign g > 0)

let suite =
  [
    Alcotest.test_case "of_int / to_int roundtrip" `Quick test_of_int_roundtrip;
    Alcotest.test_case "to_string" `Quick test_to_string;
    Alcotest.test_case "of_string" `Quick test_of_string;
    Alcotest.test_case "add/sub with carries" `Quick test_add_sub_known;
    Alcotest.test_case "mul known values" `Quick test_mul_known;
    Alcotest.test_case "divmod known values" `Quick test_divmod_known;
    Alcotest.test_case "compare" `Quick test_compare;
    Alcotest.test_case "gcd" `Quick test_gcd;
    Alcotest.test_case "to_int overflow" `Quick test_to_int_overflow;
    Alcotest.test_case "to_float" `Quick test_to_float;
    QCheck_alcotest.to_alcotest prop_add_matches_native;
    QCheck_alcotest.to_alcotest prop_mul_matches_native;
    QCheck_alcotest.to_alcotest prop_divmod_matches_native;
    QCheck_alcotest.to_alcotest prop_string_roundtrip;
    QCheck_alcotest.to_alcotest prop_difference_of_squares;
    QCheck_alcotest.to_alcotest prop_divmod_invariant_big;
    QCheck_alcotest.to_alcotest prop_gcd_divides;
  ]
