module Errors = Nettomo_util.Errors
module Q = Rational

type t = { m : int; n : int; a : Q.t array array }
(* Invariant: a has m rows of n entries each; rows are never shared with
   callers (copied on the way in and out). *)

let of_rows rows =
  let m = Array.length rows in
  if m = 0 then Errors.invalid_arg "Matrix.of_rows: no rows";
  let n = Array.length rows.(0) in
  if n = 0 then Errors.invalid_arg "Matrix.of_rows: empty rows";
  if not (Array.for_all (fun r -> Array.length r = n) rows) then
    Errors.invalid_arg "Matrix.of_rows: ragged rows";
  { m; n; a = Array.map Array.copy rows }

let of_int_rows rows = of_rows (Array.map (Array.map Q.of_int) rows)

let rows t = t.m
let cols t = t.n

let get t i j =
  if i < 0 || i >= t.m || j < 0 || j >= t.n then
    Errors.invalid_arg "Matrix.get: out of bounds";
  t.a.(i).(j)

let row t i =
  if i < 0 || i >= t.m then Errors.invalid_arg "Matrix.row: out of bounds";
  Array.copy t.a.(i)

let to_rows t = Array.map Array.copy t.a

(* Gauss–Jordan elimination in place on a working copy. Returns the
   working rows, the rank, and the pivot column of each pivot row. *)
let eliminate rows_arr n =
  let m = Array.length rows_arr in
  let a = Array.map Array.copy rows_arr in
  let pivots = ref [] in
  let r = ref 0 in
  let col = ref 0 in
  while !r < m && !col < n do
    (* Find a pivot in this column at or below row r. *)
    let pivot = ref (-1) in
    let i = ref !r in
    while !pivot < 0 && !i < m do
      if not (Q.is_zero a.(!i).(!col)) then pivot := !i;
      incr i
    done;
    if !pivot >= 0 then begin
      let tmp = a.(!r) in
      a.(!r) <- a.(!pivot);
      a.(!pivot) <- tmp;
      (* Scale the pivot row to 1 and clear the column everywhere else
         (full Gauss–Jordan, so the result is RREF). *)
      let inv = Q.inv a.(!r).(!col) in
      for j = !col to n - 1 do
        a.(!r).(j) <- Q.mul a.(!r).(j) inv
      done;
      for i = 0 to m - 1 do
        if i <> !r && not (Q.is_zero a.(i).(!col)) then begin
          let factor = a.(i).(!col) in
          for j = !col to n - 1 do
            a.(i).(j) <- Q.sub a.(i).(j) (Q.mul factor a.(!r).(j))
          done
        end
      done;
      pivots := !col :: !pivots;
      incr r
    end;
    incr col
  done;
  (a, !r, List.rev !pivots)

let rank t =
  let _, rank, _ = eliminate t.a t.n in
  rank

let solve t b =
  if Array.length b <> t.m then Errors.invalid_arg "Matrix.solve: dimension mismatch";
  (* Augment with b, eliminate, and read the solution off the pivots. *)
  let aug =
    Array.init t.m (fun i ->
        Array.init (t.n + 1) (fun j -> if j < t.n then t.a.(i).(j) else b.(i)))
  in
  let a, rank, pivots = eliminate aug (t.n + 1) in
  if List.exists (fun c -> c = t.n) pivots then None (* inconsistent *)
  else if rank < t.n then
    Errors.invalid_arg "Matrix.solve: matrix does not have full column rank"
  else begin
    let x = Array.make t.n Q.zero in
    List.iteri (fun i c -> x.(c) <- a.(i).(t.n)) pivots;
    Some x
  end
