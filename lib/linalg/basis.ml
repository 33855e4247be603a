module Errors = Nettomo_util.Errors
module Q = Rational

(* A stored row without its pivot: the columns after the pivot where it
   is nonzero, ascending, and its values there. The 1 at the pivot is
   implicit. Rows are never modified once stored, so copies share them. *)
type row = { cols : int array; vals : Q.t array }

type t = {
  n : int;
  rows : row option array;
  mutable rank : int;
  acc : Q.t array;
      (* The one accumulator every elimination runs in: zero at every
         column between calls. *)
  found : int array;
      (* The latest sweep's residual nonzero columns, ascending, in its
         first entries. *)
}
(* Invariant: [rows.(p)] is the row pivoted at column [p], if any: a 1
   at [p], zeros at every earlier column, and its nonzero entries after
   [p] stored sparse. Rows are not reduced against later pivots —
   forward reduction in pivot order is still exact because eliminating
   pivot p only perturbs columns > p. [rank] counts the stored rows. *)

let create n =
  if n < 0 then Errors.invalid_arg "Basis.create: negative dimension";
  { n; rows = Array.make n None; rank = 0; acc = Array.make n Q.zero; found = Array.make n 0 }

let dimension t = t.n

let rank t = t.rank

let is_full t = t.rank = t.n

(* Forward elimination of the accumulator over columns [from] to n−1,
   which must hold its only nonzeros: one left-to-right sweep that, at
   each pivot column where it is nonzero, subtracts that multiple of the
   row pivoted there. A row pivoted at [p] only changes columns after
   [p], so the sweep applies rows in increasing pivot order, each
   application costs the row's nonzeros, and a column's entry is final
   when the sweep reaches it. The pivot entry itself becomes exactly
   zero; a nonzero entry at a column no row is pivoted at is part of the
   residual and is recorded in [found]. Returns how many were. *)
let sweep t from =
  let acc = t.acc in
  let count = ref 0 in
  for p = from to t.n - 1 do
    let factor = acc.(p) in
    if not (Q.is_zero factor) then
      match t.rows.(p) with
      | None ->
          t.found.(!count) <- p;
          incr count
      | Some { cols; vals } ->
          acc.(p) <- Q.zero;
          for k = 0 to Array.length cols - 1 do
            let j = cols.(k) in
            acc.(j) <- Q.sub acc.(j) (Q.mul factor vals.(k))
          done
  done;
  !count

(* After a sweep the accumulator is nonzero only at the recorded
   columns. *)
let clear t count =
  for k = 0 to count - 1 do
    t.acc.(t.found.(k)) <- Q.zero
  done

(* Keep the residual of the latest sweep as a new row, scaled to 1 at
   its first column, when it is nonzero; then clear the accumulator. *)
let store t count =
  if count = 0 then false
  else begin
    let p = t.found.(0) in
    let inv = Q.inv t.acc.(p) in
    let cols = Array.sub t.found 1 (count - 1) in
    t.rows.(p) <- Some { cols; vals = Array.map (fun j -> Q.mul t.acc.(j) inv) cols };
    clear t count;
    t.rank <- t.rank + 1;
    true
  end

(* Load a dense vector's nonzeros into the accumulator; returns its
   first nonzero column, [n] when there is none. *)
let load t v =
  if Array.length v <> t.n then Errors.invalid_arg "Basis: dimension mismatch";
  let first = ref t.n in
  for j = t.n - 1 downto 0 do
    if not (Q.is_zero v.(j)) then begin
      t.acc.(j) <- v.(j);
      first := j
    end
  done;
  !first

let reduce t v =
  let count = sweep t (load t v) in
  let res = Array.make t.n Q.zero in
  for k = 0 to count - 1 do
    let j = t.found.(k) in
    res.(j) <- t.acc.(j)
  done;
  clear t count;
  res

let mem t v =
  let count = sweep t (load t v) in
  clear t count;
  count = 0

(* Rows pivoted before [j] are zero at [j] and never touch the unit
   vector's residual; the row pivoted at [j], if any, clears it there
   and leaves minus its own later entries, which only the rows after it
   can cancel. Their sign does not change whether they cancel, so the
   entries are loaded as stored. *)
let mem_unit t j =
  if j < 0 || j >= t.n then Errors.invalid_arg "Basis.mem_unit: column out of range";
  match t.rows.(j) with
  | None -> false
  | Some { cols; _ } when Array.length cols = 0 -> true
  | Some { cols; vals } ->
      Array.iteri (fun k c -> t.acc.(c) <- vals.(k)) cols;
      let count = sweep t cols.(0) in
      clear t count;
      count = 0

let add t v = store t (sweep t (load t v))

let add_cols t cols len =
  let prev = ref (-1) in
  for k = 0 to len - 1 do
    let j = cols.(k) in
    if j <= !prev || j >= t.n then
      Errors.invalid_arg "Basis.add_cols: columns must be ascending and below the dimension";
    prev := j
  done;
  if len = 0 then false
  else begin
    for k = 0 to len - 1 do
      t.acc.(cols.(k)) <- Q.one
    done;
    store t (sweep t cols.(0))
  end

let copy t =
  { t with rows = Array.copy t.rows; acc = Array.make t.n Q.zero; found = Array.make t.n 0 }
