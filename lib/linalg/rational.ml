
(* Canonical representation: [Small (n, d)] iff |n| ≤ small_max and
   0 < d ≤ small_max, otherwise [Big]. Both forms are kept in lowest
   terms with a positive denominator, and zero is [Small (0, 1)]. With
   both operands small, every cross product in add/sub/mul/compare is
   below 2^60 and their sums below 2^61, so they are computed exactly in
   a native int; Bigint only runs once a value leaves the small range.
   Canonicity makes structural equality correct: a value has exactly
   one representation. *)
type t = Small of int * int | Big of { num : Bigint.t; den : Bigint.t }

let small_max = (1 lsl 30) - 1
let big_small_max = Bigint.of_int small_max

let zero = Small (0, 1)
let one = Small (1, 1)

let fits n d = n >= -small_max && n <= small_max && d <= small_max

let rec gcd_int a b = if b = 0 then a else gcd_int b (a mod b)

(* [n/d] from native ints with [d > 0] and [|n|, d < 2^62]. *)
let of_native n d =
  if n = 0 then zero
  else begin
    let g = if d = 1 then 1 else gcd_int (abs n) d in
    let n = n / g and d = d / g in
    if fits n d then Small (n, d)
    else Big { num = Bigint.of_int n; den = Bigint.of_int d }
  end

(* [num/den] already in lowest terms with [den > 0]: pick the form. *)
let of_reduced num den =
  if
    Bigint.compare (Bigint.abs num) big_small_max <= 0
    && Bigint.compare den big_small_max <= 0
  then
    match (Bigint.to_int num, Bigint.to_int den) with
    | Some n, Some d -> Small (n, d)
    | None, _ | _, None -> Big { num; den }
  else Big { num; den }

let make num den =
  if Bigint.is_zero den then raise Division_by_zero;
  if Bigint.is_zero num then zero
  else begin
    let num, den =
      if Bigint.sign den < 0 then (Bigint.neg num, Bigint.neg den)
      else (num, den)
    in
    let g = Bigint.gcd num den in
    of_reduced (Bigint.div num g) (Bigint.div den g)
  end

let of_int n =
  if fits n 1 then Small (n, 1) else Big { num = Bigint.of_int n; den = Bigint.one }

let of_ints n d =
  if d = 0 then raise Division_by_zero;
  if n = min_int || d = min_int then make (Bigint.of_int n) (Bigint.of_int d)
  else if d < 0 then of_native (-n) (-d)
  else of_native n d

(* Both parts as Bigints: the slow path's operands. *)
let parts = function
  | Small (n, d) -> (Bigint.of_int n, Bigint.of_int d)
  | Big { num; den } -> (num, den)

let num t = fst (parts t)
let den t = snd (parts t)

let is_small = function Small _ -> true | Big _ -> false

let sign = function
  | Small (n, _) -> if n > 0 then 1 else if n < 0 then -1 else 0
  | Big { num; _ } -> Bigint.sign num

let is_zero = function Small (0, _) -> true | Small _ | Big _ -> false

let compare a b =
  (* a/b vs c/d with b, d > 0: compare ad with cb. *)
  match (a, b) with
  | Small (an, ad), Small (bn, bd) -> Int.compare (an * bd) (bn * ad)
  | (Small _ | Big _), _ ->
      let an, ad = parts a and bn, bd = parts b in
      Bigint.compare (Bigint.mul an bd) (Bigint.mul bn ad)

let equal a b =
  match (a, b) with
  | Small (an, ad), Small (bn, bd) -> Int.equal an bn && Int.equal ad bd
  | Big a, Big b -> Bigint.equal a.num b.num && Bigint.equal a.den b.den
  | Small _, Big _ | Big _, Small _ -> false

let neg = function
  | Small (n, d) -> Small (-n, d)
  | Big b -> Big { b with num = Bigint.neg b.num }

let add a b =
  match (a, b) with
  | Small (an, ad), Small (bn, bd) ->
      if ad = bd then of_native (an + bn) ad
      else of_native ((an * bd) + (bn * ad)) (ad * bd)
  | (Small _ | Big _), _ ->
      let an, ad = parts a and bn, bd = parts b in
      make
        (Bigint.add (Bigint.mul an bd) (Bigint.mul bn ad))
        (Bigint.mul ad bd)

let sub a b = add a (neg b)

let mul a b =
  match (a, b) with
  | Small (an, ad), Small (bn, bd) -> of_native (an * bn) (ad * bd)
  | (Small _ | Big _), _ ->
      let an, ad = parts a and bn, bd = parts b in
      make (Bigint.mul an bn) (Bigint.mul ad bd)

let inv = function
  | Small (0, _) -> raise Division_by_zero
  | Small (n, d) -> if n > 0 then Small (d, n) else Small (-d, -n)
  | Big { num; den } ->
      (* Swapping keeps the magnitudes, so the value stays big and in
         lowest terms; only the sign moves to the new numerator. *)
      if Bigint.sign num > 0 then Big { num = den; den = num }
      else Big { num = Bigint.neg den; den = Bigint.neg num }

let to_float = function
  | Small (n, d) -> float_of_int n /. float_of_int d
  | Big { num; den } -> Bigint.to_float num /. Bigint.to_float den

let to_string = function
  | Small (n, 1) -> string_of_int n
  | Small (n, d) -> string_of_int n ^ "/" ^ string_of_int d
  | Big { num; den } ->
      if Bigint.equal den Bigint.one then Bigint.to_string num
      else Bigint.to_string num ^ "/" ^ Bigint.to_string den

let pp ppf t = Format.pp_print_string ppf (to_string t)

module Testing = struct
  let big num den = Big { num; den }
end
