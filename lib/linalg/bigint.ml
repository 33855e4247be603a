(* Sign-magnitude bignums. Magnitudes are little-endian arrays of base-2^30
   limbs with no trailing (most-significant) zero limbs; zero is the empty
   array. All magnitude helpers below maintain that invariant. *)

module Errors = Nettomo_util.Errors
let limb_bits = 30
let base = 1 lsl limb_bits
let mask = base - 1

type t = { sign : int; mag : int array }
(* Invariant: sign ∈ {-1, 0, 1}; sign = 0 iff mag = [||]. *)

(* ------------------------------------------------------------------ *)
(* Magnitude arithmetic                                                *)

let mag_zero : int array = [||]

let mag_is_zero m = Array.length m = 0

let normalize m =
  let l = ref (Array.length m) in
  while !l > 0 && m.(!l - 1) = 0 do
    decr l
  done;
  if !l = Array.length m then m else Array.sub m 0 !l

let mag_compare a b =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then Int.compare la lb
  else begin
    let rec loop i =
      if i < 0 then 0
      else if a.(i) <> b.(i) then Int.compare a.(i) b.(i)
      else loop (i - 1)
    in
    loop (la - 1)
  end

let mag_add a b =
  let la = Array.length a and lb = Array.length b in
  let l = max la lb in
  let res = Array.make (l + 1) 0 in
  let carry = ref 0 in
  for i = 0 to l - 1 do
    let s =
      (if i < la then a.(i) else 0) + (if i < lb then b.(i) else 0) + !carry
    in
    res.(i) <- s land mask;
    carry := s lsr limb_bits
  done;
  res.(l) <- !carry;
  normalize res

(* Requires a ≥ b. *)
let mag_sub a b =
  let la = Array.length a and lb = Array.length b in
  let res = Array.make la 0 in
  let borrow = ref 0 in
  for i = 0 to la - 1 do
    let d = a.(i) - (if i < lb then b.(i) else 0) - !borrow in
    if d < 0 then begin
      res.(i) <- d + base;
      borrow := 1
    end
    else begin
      res.(i) <- d;
      borrow := 0
    end
  done;
  assert (!borrow = 0);
  normalize res

let mag_mul a b =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then mag_zero
  else begin
    let res = Array.make (la + lb) 0 in
    for i = 0 to la - 1 do
      let carry = ref 0 in
      for j = 0 to lb - 1 do
        (* ≤ (2^30-1) + (2^30-1)^2 + (2^30-1) < 2^61: fits in an int. *)
        let cur = res.(i + j) + (a.(i) * b.(j)) + !carry in
        res.(i + j) <- cur land mask;
        carry := cur lsr limb_bits
      done;
      res.(i + lb) <- !carry
    done;
    normalize res
  end

let mag_mul_small a d =
  (* d must satisfy 0 ≤ d < base. *)
  if d = 0 || mag_is_zero a then mag_zero
  else begin
    let la = Array.length a in
    let res = Array.make (la + 1) 0 in
    let carry = ref 0 in
    for i = 0 to la - 1 do
      let cur = (a.(i) * d) + !carry in
      res.(i) <- cur land mask;
      carry := cur lsr limb_bits
    done;
    res.(la) <- !carry;
    normalize res
  end

let mag_add_small a d =
  if d = 0 then a else mag_add a [| d land mask; d lsr limb_bits |] |> normalize

(* Division of a magnitude by a small positive int (< base): quotient and
   remainder. *)
let mag_divmod_small a d =
  let la = Array.length a in
  let q = Array.make la 0 in
  let r = ref 0 in
  for i = la - 1 downto 0 do
    let cur = (!r lsl limb_bits) lor a.(i) in
    q.(i) <- cur / d;
    r := cur mod d
  done;
  (normalize q, !r)

let bitlen m =
  let l = Array.length m in
  if l = 0 then 0
  else begin
    let top = m.(l - 1) in
    let rec bits x acc = if x = 0 then acc else bits (x lsr 1) (acc + 1) in
    ((l - 1) * limb_bits) + bits top 0
  end

let mag_shift_left m k =
  if mag_is_zero m || k = 0 then m
  else begin
    let limb_shift = k / limb_bits and bit_shift = k mod limb_bits in
    let l = Array.length m in
    let res = Array.make (l + limb_shift + 1) 0 in
    for i = 0 to l - 1 do
      let v = m.(i) lsl bit_shift in
      res.(i + limb_shift) <- res.(i + limb_shift) lor (v land mask);
      res.(i + limb_shift + 1) <- v lsr limb_bits
    done;
    normalize res
  end

let mag_shift_right_1 m =
  let l = Array.length m in
  if l = 0 then m
  else begin
    let res = Array.make l 0 in
    for i = 0 to l - 1 do
      let v = m.(i) lsr 1 in
      let carry = if i + 1 < l then (m.(i + 1) land 1) lsl (limb_bits - 1) else 0 in
      res.(i) <- v lor carry
    done;
    normalize res
  end

let mag_set_bit m i =
  let limb = i / limb_bits and bit = i mod limb_bits in
  let l = max (Array.length m) (limb + 1) in
  let res = Array.make l 0 in
  Array.blit m 0 res 0 (Array.length m);
  res.(limb) <- res.(limb) lor (1 lsl bit);
  res

(* Shift-subtract long division on magnitudes: O(bit-length²/limb). *)
let mag_divmod a b =
  if mag_is_zero b then raise Division_by_zero;
  if mag_compare a b < 0 then (mag_zero, a)
  else begin
    let k = bitlen a - bitlen b in
    let cur = ref (mag_shift_left b k) in
    let r = ref a in
    let q = ref mag_zero in
    for i = k downto 0 do
      if mag_compare !cur !r <= 0 then begin
        r := mag_sub !r !cur;
        q := mag_set_bit !q i
      end;
      cur := mag_shift_right_1 !cur
    done;
    (normalize !q, !r)
  end

(* ------------------------------------------------------------------ *)
(* Signed interface                                                    *)

let make sign mag = if mag_is_zero mag then { sign = 0; mag = mag_zero } else { sign; mag }

let zero = { sign = 0; mag = mag_zero }

(* [limbs] collects most-significant-first; reverse for little-endian. *)
let rec limbs_of_nonneg n acc =
  if n = 0 then acc else limbs_of_nonneg (n lsr limb_bits) ((n land mask) :: acc)

let mag_of_nonneg n =
  if n = 0 then mag_zero
  else Array.of_list (List.rev (limbs_of_nonneg n []))

let of_int n =
  if n = 0 then zero
  else if n > 0 then make 1 (mag_of_nonneg n)
  else begin
    (* -(n + 1) is safe even for min_int; add the 1 back in magnitude. *)
    let pos = -(n + 1) in
    make (-1) (mag_add_small (mag_of_nonneg pos) 1)
  end

let one = of_int 1

let sign t = t.sign
let is_zero t = t.sign = 0

let compare a b =
  if a.sign <> b.sign then Int.compare a.sign b.sign
  else if a.sign >= 0 then mag_compare a.mag b.mag
  else mag_compare b.mag a.mag

let equal a b = compare a b = 0

let neg t = make (-t.sign) t.mag
let abs t = make (Stdlib.abs t.sign) t.mag

let add a b =
  if a.sign = 0 then b
  else if b.sign = 0 then a
  else if a.sign = b.sign then make a.sign (mag_add a.mag b.mag)
  else begin
    match mag_compare a.mag b.mag with
    | 0 -> zero
    | c when c > 0 -> make a.sign (mag_sub a.mag b.mag)
    | _ -> make b.sign (mag_sub b.mag a.mag)
  end

let sub a b = add a (neg b)

let mul a b = make (a.sign * b.sign) (mag_mul a.mag b.mag)

let divmod a b =
  if b.sign = 0 then raise Division_by_zero;
  let qm, rm = mag_divmod a.mag b.mag in
  (make (a.sign * b.sign) qm, make a.sign rm)

let div a b = fst (divmod a b)
let rem a b = snd (divmod a b)

let rec gcd a b =
  let a = abs a and b = abs b in
  if is_zero b then a else gcd b (rem a b)

let to_int t =
  (* Fits if the magnitude has at most ⌈63/30⌉ limbs and the assembled
     value round-trips; min_int needs a special case because its
     magnitude 2^62 overflows the positive range. *)
  if equal t (of_int min_int) then Some min_int
  else if Array.length t.mag > 3 then None
  else begin
    let v =
      Array.to_list t.mag |> List.rev
      |> List.fold_left (fun acc limb -> (acc * base) + limb) 0
    in
    if v < 0 then None (* overflowed into the sign bit *)
    else begin
      let signed = if t.sign < 0 then -v else v in
      if equal (of_int signed) t then Some signed else None
    end
  end

let to_string t =
  if t.sign = 0 then "0"
  else begin
    let chunks = ref [] in
    let m = ref t.mag in
    while not (mag_is_zero !m) do
      let q, r = mag_divmod_small !m 1_000_000_000 in
      chunks := r :: !chunks;
      m := q
    done;
    let buf = Buffer.create 32 in
    if t.sign < 0 then Buffer.add_char buf '-';
    (match !chunks with
    | [] -> assert false
    | first :: rest ->
        Buffer.add_string buf (string_of_int first);
        List.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%09d" c)) rest);
    Buffer.contents buf
  end

let of_string s =
  let fail () = Errors.invalid_arg "Bigint.of_string: malformed integer" in
  let len = String.length s in
  if len = 0 then fail ();
  let negative = s.[0] = '-' in
  let start = if negative then 1 else 0 in
  if start >= len then fail ();
  let mag = ref mag_zero in
  for i = start to len - 1 do
    match s.[i] with
    | '0' .. '9' ->
        mag := mag_add_small (mag_mul_small !mag 10) (Char.code s.[i] - Char.code '0')
    | _ -> fail ()
  done;
  make (if negative then -1 else 1) !mag

let to_float t =
  let m =
    Array.to_list t.mag |> List.rev
    |> List.fold_left (fun acc limb -> (acc *. float_of_int base) +. float_of_int limb) 0.0
  in
  if t.sign < 0 then -.m else m
