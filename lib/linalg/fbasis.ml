module Errors = Nettomo_util.Errors

type t = {
  n : int;
  epsilon : float;
  rows : float array array;
      (* [rows.(p)] is the row whose pivot is column [p], scaled to 1.0
         there; [[||]] when column [p] is not a pivot. *)
  mutable rank : int;
  mutable free : int array;
      (* The non-pivot columns, ascending. Every row is exactly zero at
         every pivot but its own, so arithmetic only ever changes a
         vector on these columns and its own pivot. *)
  scratch : float array;
      (* The residual of the latest {!reduce}, meaningful on the free
         columns only. Owned by this basis, so no reduction allocates. *)
}

let create ?(epsilon = 1e-9) n =
  if n < 0 then Errors.invalid_arg "Fbasis.create: negative dimension";
  {
    n;
    epsilon;
    rows = Array.make n [||];
    rank = 0;
    free = Array.init n Fun.id;
    scratch = Array.make n 0.0;
  }

let dimension t = t.n
let rank t = t.rank
let is_full t = t.rank = t.n

(* Reduce the 0/1 row with ones at [cols] into the scratch vector. Rows
   are kept fully reduced, so subtracting a row leaves every other pivot
   column untouched: the factor at pivot [p] is the input's own entry,
   exactly 1.0 when [p] is one of [cols] and 0.0 otherwise. Only the
   rows pivoted on [cols] are subtracted, then, in increasing pivot
   order — the float operations a dense reduction over every row does,
   in the same order. The residual is zero on every pivot column, so
   only free columns are ever read back. *)
let reduce t cols =
  let v = t.scratch and free = t.free in
  for k = 0 to Array.length free - 1 do
    v.(free.(k)) <- 0.0
  done;
  let rec load prev = function
    | [] -> ()
    | j :: rest ->
        if j <= prev || j >= t.n then
          Errors.invalid_arg "Fbasis: columns must be ascending and below the dimension";
        v.(j) <- 1.0;
        load j rest
  in
  load (-1) cols;
  List.iter
    (fun p ->
      let r = t.rows.(p) in
      if Array.length r > 0 then
        for k = 0 to Array.length free - 1 do
          let j = free.(k) in
          v.(j) <- v.(j) -. r.(j)
        done)
    cols

(* Largest-magnitude residual entry, first one on ties, or -1 when every
   entry is within [epsilon]: partial pivoting keeps the basis
   numerically tame. Only free columns can win. *)
let best_pivot t =
  let v = t.scratch in
  let best = ref (-1) in
  let best_mag = ref t.epsilon in
  Array.iter
    (fun j ->
      let m = Float.abs v.(j) in
      if m > !best_mag then begin
        best := j;
        best_mag := m
      end)
    t.free;
  !best

let would_increase_rank t cols =
  reduce t cols;
  best_pivot t >= 0

let add t cols =
  reduce t cols;
  let p = best_pivot t in
  if p < 0 then false
  else begin
    let v = t.scratch and free = t.free in
    let inv = 1.0 /. v.(p) in
    let res = Array.make t.n 0.0 in
    Array.iter (fun j -> res.(j) <- v.(j) *. inv) free;
    res.(p) <- 1.0;
    (* Magnitude pivoting means the pivot need not be the leftmost
       nonzero, so keep the basis fully reduced (RREF): eliminate the
       new pivot column from every existing row. Then reduction order
       no longer matters and {!reduce} stays correct. The new row is
       zero on the old pivots, so only free columns change. *)
    Array.iter
      (fun r ->
        if Array.length r > 0 then begin
          let factor = r.(p) in
          if Float.abs factor > 0.0 then
            for k = 0 to Array.length free - 1 do
              let j = free.(k) in
              r.(j) <- r.(j) -. (factor *. res.(j))
            done
        end)
      t.rows;
    t.rows.(p) <- res;
    t.rank <- t.rank + 1;
    t.free <- Array.of_list (List.filter (fun j -> j <> p) (Array.to_list free));
    true
  end

let copy t =
  { t with rows = Array.map Array.copy t.rows; scratch = Array.make t.n 0.0 }
