module I = Nettomo_util.Invariant

let check_rational q =
  let num = Rational.num q and den = Rational.den q in
  I.require (Bigint.sign den > 0) "Rational: non-positive denominator %s"
    (Bigint.to_string den);
  let g = Bigint.gcd (Bigint.abs num) den in
  I.require (Bigint.equal g Bigint.one || Bigint.is_zero num)
    "Rational: %s/%s not in lowest terms (gcd %s)" (Bigint.to_string num)
    (Bigint.to_string den) (Bigint.to_string g);
  if Bigint.is_zero num then
    I.require (Bigint.equal den Bigint.one) "Rational: zero stored as 0/%s"
      (Bigint.to_string den);
  (* Canonical form: structural equality is only correct if a value
     that fits the small form is never stored big. *)
  let bound = Bigint.of_int Rational.small_max in
  let fits =
    Bigint.compare (Bigint.abs num) bound <= 0 && Bigint.compare den bound <= 0
  in
  I.require (Rational.is_small q = fits) "Rational: %s/%s stored %s"
    (Bigint.to_string num) (Bigint.to_string den)
    (if fits then "big but fits the small form" else "small beyond its range")

let check_vector v = Array.iter check_rational v

let check_matrix m =
  let rows = Matrix.rows m and cols = Matrix.cols m in
  I.require (rows > 0 && cols > 0) "Matrix: degenerate shape %dx%d" rows cols;
  let contents = Matrix.to_rows m in
  I.require (Array.length contents = rows)
    "Matrix: claims %d rows but stores %d" rows (Array.length contents);
  Array.iteri
    (fun i row ->
      I.require (Array.length row = cols)
        "Matrix: row %d has %d columns, matrix claims %d" i (Array.length row)
        cols;
      check_vector row)
    contents

let check_basis b =
  let n = Basis.dimension b and r = Basis.rank b in
  I.require (0 <= r && r <= n) "Basis: rank %d outside [0, %d]" r n;
  I.require (Basis.is_full b = (r = n))
    "Basis: is_full inconsistent with rank %d of dimension %d" r n;
  if n > 0 then begin
    (* The zero vector is in every span: its residual must be zero and
       adding it must never grow the basis. *)
    let zero = Array.make n Rational.zero in
    I.require
      (Array.for_all Rational.is_zero (Basis.reduce b zero))
      "Basis: nonzero residual for the zero vector";
    let copy = Basis.copy b in
    I.require
      (not (Basis.add copy zero))
      "Basis: the zero vector reported as independent"
  end

let check_system m b =
  check_matrix m;
  check_vector b;
  I.require
    (Array.length b = Matrix.rows m)
    "System: %d-row matrix paired with a %d-entry right-hand side"
    (Matrix.rows m) (Array.length b)
