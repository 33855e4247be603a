(* Order statistics on raw samples.

   Every percentile the suite reports is read off the raw samples by
   nearest rank, never off histogram buckets: a bucketed estimate can
   only answer with a bucket edge. *)

let sorted samples =
  let a = Array.of_list samples in
  Array.sort Float.compare a;
  a

(* Nearest-rank quantile: the smallest sample with at least [q] of the
   samples at or below it. [nan] on no samples. *)
let quantile samples q =
  let a = sorted samples in
  let n = Array.length a in
  if n = 0 then Float.nan
  else
    let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

let median samples = quantile samples 0.5

(* The highest percentile the sample supports: the largest q such that
   at least 10 samples lie strictly above the nearest-rank q-quantile's
   position, i.e. q = 1 - 10/n, floored to a whole percent. [None] with
   10 samples or fewer. *)
let supported_percentile n =
  if n <= 10 then None else Some (Float.floor (100. *. (1. -. (10. /. float_of_int n))))

(* Quartiles by the method of Python's [statistics.quantiles(data, n=4)]
   (the default "exclusive" method), so spreads computed here match
   ones computed from the same result files with Python. Needs at least
   two samples. *)
let quartiles samples =
  let a = sorted samples in
  let ld = Array.length a in
  if ld < 2 then invalid_arg "Stats.quartiles: need at least two samples";
  let m = ld + 1 in
  let cut i =
    let j = i * m / 4 in
    let j = if j < 1 then 1 else if j > ld - 1 then ld - 1 else j in
    let delta = (i * m) - (j * 4) in
    ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
    /. 4.
  in
  (cut 1, cut 2, cut 3)
