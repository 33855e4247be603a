module Errors = Nettomo_util.Errors
module Q = Rational

(* A stored row without its pivot: the columns after the pivot where it
   is nonzero, ascending, and its values there. The 1 at the pivot is
   implicit. Rows are never modified once stored, so copies share them. *)
type row = { cols : int array; vals : Q.t array }

type t = { n : int; rows : row option array; mutable rank : int }
(* Invariant: [rows.(p)] is the row pivoted at column [p], if any: a 1
   at [p], zeros at every earlier column, and its nonzero entries after
   [p] stored sparse. Rows are not reduced against later pivots —
   forward reduction in pivot order is still exact because eliminating
   pivot p only perturbs columns > p. [rank] counts the stored rows. *)

let create n =
  if n < 0 then Errors.invalid_arg "Basis.create: negative dimension";
  { n; rows = Array.make n None; rank = 0 }

let dimension t = t.n

let rank t = t.rank

let is_full t = t.rank = t.n

let check_dim t v =
  if Array.length v <> t.n then Errors.invalid_arg "Basis: dimension mismatch"

(* Forward elimination of [v], in place, over columns [from] to n−1:
   one left-to-right sweep that, at each pivot column where [v] is
   nonzero, subtracts that multiple of the row pivoted there. A row
   pivoted at [p] only changes columns after [p], so the sweep applies
   rows in increasing pivot order, and each application costs the row's
   nonzeros. The pivot entry itself becomes exactly zero. *)
let eliminate t v from =
  for p = from to t.n - 1 do
    let factor = v.(p) in
    if not (Q.is_zero factor) then
      match t.rows.(p) with
      | None -> ()
      | Some { cols; vals } ->
          v.(p) <- Q.zero;
          for k = 0 to Array.length cols - 1 do
            let j = cols.(k) in
            v.(j) <- Q.sub v.(j) (Q.mul factor vals.(k))
          done
  done

let reduce t v =
  check_dim t v;
  let v = Array.copy v in
  eliminate t v 0;
  v

let first_nonzero v =
  let n = Array.length v in
  let rec loop j = if j >= n then None else if Q.is_zero v.(j) then loop (j + 1) else Some j in
  loop 0

let mem t v = first_nonzero (reduce t v) = None

(* Rows pivoted before [j] are zero at [j] and never touch the unit
   vector's residual; the row pivoted at [j], if any, clears it there
   and leaves minus its own later entries, which only the rows after it
   can cancel. *)
let mem_unit t j =
  if j < 0 || j >= t.n then Errors.invalid_arg "Basis.mem_unit: column out of range";
  match t.rows.(j) with
  | None -> false
  | Some { cols; vals } ->
      let v = Array.make t.n Q.zero in
      Array.iteri (fun k c -> v.(c) <- vals.(k)) cols;
      eliminate t v (j + 1);
      first_nonzero v = None

let add t v =
  let res = reduce t v in
  match first_nonzero res with
  | None -> false
  | Some p ->
      let inv = Q.inv res.(p) in
      let after = ref [] in
      for j = t.n - 1 downto p + 1 do
        if not (Q.is_zero res.(j)) then after := j :: !after
      done;
      let cols = Array.of_list !after in
      t.rows.(p) <- Some { cols; vals = Array.map (fun j -> Q.mul res.(j) inv) cols };
      t.rank <- t.rank + 1;
      true

let copy t = { t with rows = Array.copy t.rows }
