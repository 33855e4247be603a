module Errors = Nettomo_util.Errors
module Q = Rational

type t = { n : int; mutable rows : (int * Q.t array) list; mutable rank : int }
(* Invariant: [rows] is sorted by strictly increasing pivot column; each
   row has a 1 at its pivot and zeros at all earlier columns. Rows are
   not reduced against later pivots — forward reduction in pivot order is
   still exact because eliminating pivot p only perturbs columns > p.
   [rank] is the length of [rows]. *)

let create n =
  if n < 0 then Errors.invalid_arg "Basis.create: negative dimension";
  { n; rows = []; rank = 0 }

let dimension t = t.n

let rank t = t.rank

let is_full t = t.rank = t.n

let check_dim t v =
  if Array.length v <> t.n then Errors.invalid_arg "Basis: dimension mismatch"

(* Forward elimination of [v], in place, against [rows] in pivot
   order. *)
let eliminate t v rows =
  List.iter
    (fun (p, r) ->
      if not (Q.is_zero v.(p)) then begin
        let factor = v.(p) in
        (* Zero entries of the row leave v unchanged; skipping them is
           exact and spares most of the work on sparse 0/1 rows. *)
        for j = p to t.n - 1 do
          let rj = r.(j) in
          if not (Q.is_zero rj) then v.(j) <- Q.sub v.(j) (Q.mul factor rj)
        done
      end)
    rows

let reduce t v =
  check_dim t v;
  let v = Array.copy v in
  eliminate t v t.rows;
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
  let rec from = function
    | [] -> false
    | (p, _) :: rest when p < j -> from rest
    | (p, r) :: later when p = j ->
        let v = Array.copy r in
        v.(j) <- Q.zero;
        eliminate t v later;
        first_nonzero v = None
    | _ :: _ -> false
  in
  from t.rows

let add t v =
  let res = reduce t v in
  match first_nonzero res with
  | None -> false
  | Some p ->
      let inv = Q.inv res.(p) in
      for j = p to t.n - 1 do
        if not (Q.is_zero res.(j)) then res.(j) <- Q.mul res.(j) inv
      done;
      let rec insert = function
        | [] -> [ (p, res) ]
        | (p', _) :: _ as rest when p < p' -> (p, res) :: rest
        | x :: rest -> x :: insert rest
      in
      t.rows <- insert t.rows;
      t.rank <- t.rank + 1;
      true

let copy t = { t with rows = List.map (fun (p, r) -> (p, Array.copy r)) t.rows }
