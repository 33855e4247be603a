(* xoshiro256** with SplitMix64 seeding.

   References: Blackman & Vigna, "Scrambled linear pseudorandom number
   generators" (2021). The state must never be all zero, which SplitMix64
   seeding guarantees with overwhelming probability; we also guard for it
   explicitly. *)

type t = { mutable s0 : int64; mutable s1 : int64; mutable s2 : int64; mutable s3 : int64 }

let splitmix64 state =
  let open Int64 in
  state := add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let create seed =
  let state = ref (Int64.of_int seed) in
  let s0 = splitmix64 state in
  let s1 = splitmix64 state in
  let s2 = splitmix64 state in
  let s3 = splitmix64 state in
  if Int64.logor (Int64.logor s0 s1) (Int64.logor s2 s3) = 0L then
    { s0 = 1L; s1; s2; s3 }
  else { s0; s1; s2; s3 }

let copy t = { s0 = t.s0; s1 = t.s1; s2 = t.s2; s3 = t.s3 }

let rotl x k =
  Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

let bits64 t =
  let open Int64 in
  let result = mul (rotl (mul t.s1 5L) 7) 9L in
  let tt = shift_left t.s1 17 in
  t.s2 <- logxor t.s2 t.s0;
  t.s3 <- logxor t.s3 t.s1;
  t.s1 <- logxor t.s1 t.s2;
  t.s0 <- logxor t.s0 t.s3;
  t.s2 <- logxor t.s2 tt;
  t.s3 <- rotl t.s3 45;
  result

let of_key key =
  let state = ref key in
  let s0 = splitmix64 state in
  let s1 = splitmix64 state in
  let s2 = splitmix64 state in
  let s3 = splitmix64 state in
  if Int64.logor (Int64.logor s0 s1) (Int64.logor s2 s3) = 0L then
    { s0 = 1L; s1; s2; s3 }
  else { s0; s1; s2; s3 }

(* Stateless SplitMix64 finalizer: a bijection on 64-bit words with
   strong avalanche, used to key substreams. *)
let mix64 z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let substream t index =
  (* Absorb the full 256-bit state and the index through mix64 chains.
     Reading the state (not drawing from it) keeps [t] unadvanced, so a
     substream depends only on (state, index) — never on how many
     sibling substreams were derived or drawn from in between. *)
  let gamma = 0x9E3779B97F4A7C15L in
  let key = mix64 (Int64.add t.s0 (Int64.mul gamma (Int64.of_int index))) in
  let key = mix64 (Int64.logxor key t.s1) in
  let key = mix64 (Int64.logxor key t.s2) in
  let key = mix64 (Int64.logxor key t.s3) in
  of_key key

let split_n t n =
  if n < 0 then Errors.invalid_arg "Prng.split_n: n must be non-negative";
  let base = copy t in
  ignore (bits64 t);
  Array.init n (substream base)

let int t bound =
  if bound <= 0 then Errors.invalid_arg "Prng.int: bound must be positive";
  (* Rejection sampling over the top 62 bits avoids modulo bias. *)
  let mask = max_int in
  let rec loop () =
    let raw = Int64.to_int (Int64.shift_right_logical (bits64 t) 2) land mask in
    let v = raw mod bound in
    if raw - v > mask - bound + 1 then loop () else v
  in
  loop ()

let int_in t lo hi =
  if hi < lo then Errors.invalid_arg "Prng.int_in: empty range";
  lo + int t (hi - lo + 1)

let float t bound =
  (* 53 uniform bits, as in the standard double construction. *)
  let x = Int64.to_float (Int64.shift_right_logical (bits64 t) 11) in
  x /. 9007199254740992.0 *. bound

let bool t = Int64.logand (bits64 t) 1L = 1L

let bernoulli t p = float t 1.0 < p

let gaussian ?(sigma = 1.0) t =
  (* Box–Muller; one of the pair is discarded to keep the state simple. *)
  let rec nonzero () =
    let u = float t 1.0 in
    if u > 0.0 then u else nonzero ()
  in
  let u1 = nonzero () and u2 = float t 1.0 in
  sigma *. sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2)

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let sample t k arr =
  let n = Array.length arr in
  if k < 0 || k > n then Errors.invalid_arg "Prng.sample: k out of range";
  let copy = Array.copy arr in
  (* Partial Fisher–Yates: after i swaps, the prefix is a uniform sample. *)
  for i = 0 to k - 1 do
    let j = i + int t (n - i) in
    let tmp = copy.(i) in
    copy.(i) <- copy.(j);
    copy.(j) <- tmp
  done;
  Array.sub copy 0 k

let choose t arr =
  if Array.length arr = 0 then Errors.invalid_arg "Prng.choose: empty array";
  arr.(int t (Array.length arr))
