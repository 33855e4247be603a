module Errors = Nettomo_util.Errors

type t = {
  n : int;
  epsilon : float;
  rows : float array array;
      (* [rows.(p)] is the row whose pivot is column [p], scaled to 1.0
         there; [[||]] when column [p] is not a pivot. Every row is
         exactly zero at every pivot but its own, so arithmetic only
         ever changes a vector on the non-pivot (free) columns and its
         own pivot. *)
  nz : int array array;
      (* [nz.(p)] lists the free columns where [rows.(p)] is nonzero, in
         no particular order: the only entries a reduction subtracts. *)
  mutable rank : int;
  scratch : float array;
      (* The residual of the latest {!reduce}, meaningful on the free
         columns only, and 0.0 on every free column outside [touched].
         Owned by this basis, so no reduction allocates. *)
  touched : int array;
      (* Its first [n_touched] entries are the free columns the latest
         {!reduce} wrote, each once. *)
  mutable n_touched : int;
  mark : int array;
  mutable stamp : int;
      (* [mark.(j) = stamp] iff column [j] is already listed in the
         list being built. *)
}

let create ?(epsilon = 1e-9) n =
  if n < 0 then Errors.invalid_arg "Fbasis.create: negative dimension";
  {
    n;
    epsilon;
    rows = Array.make n [||];
    nz = Array.make n [||];
    rank = 0;
    scratch = Array.make n 0.0;
    touched = Array.make n 0;
    n_touched = 0;
    mark = Array.make n 0;
    stamp = 0;
  }

let dimension t = t.n
let rank t = t.rank
let is_full t = t.rank = t.n
let is_pivot t j = Array.length t.rows.(j) > 0

let touch t j =
  if t.mark.(j) <> t.stamp then begin
    t.mark.(j) <- t.stamp;
    t.touched.(t.n_touched) <- j;
    t.n_touched <- t.n_touched + 1
  end

(* Reduce the 0/1 row with ones at [cols] into the scratch vector. Rows
   are kept fully reduced, so subtracting a row leaves every other pivot
   column untouched: the factor at pivot [p] is the input's own entry,
   exactly 1.0 when [p] is one of [cols] and 0.0 otherwise. Only the
   rows pivoted on [cols] are subtracted, then, in increasing pivot
   order, and each only on its listed nonzero columns. A dense reduction
   over every row and column would also subtract the exact zeros, which
   leaves every nonzero value as it is; the residual is zero on every
   pivot column, so only free columns are ever read back. *)
let reduce t cols =
  let v = t.scratch in
  for k = 0 to t.n_touched - 1 do
    v.(t.touched.(k)) <- 0.0
  done;
  t.n_touched <- 0;
  t.stamp <- t.stamp + 1;
  let rec load prev = function
    | [] -> ()
    | j :: rest ->
        if j <= prev || j >= t.n then
          Errors.invalid_arg "Fbasis: columns must be ascending and below the dimension";
        if not (is_pivot t j) then begin
          v.(j) <- 1.0;
          touch t j
        end;
        load j rest
  in
  load (-1) cols;
  List.iter
    (fun p ->
      let r = t.rows.(p) and nz = t.nz.(p) in
      for k = 0 to Array.length nz - 1 do
        let j = nz.(k) in
        v.(j) <- v.(j) -. r.(j);
        touch t j
      done)
    cols

(* Largest-magnitude residual entry, lowest column on ties, or -1 when
   every entry is within [epsilon]: partial pivoting keeps the basis
   numerically tame. Only the written free columns can win; every other
   free column is 0.0. *)
let best_pivot t =
  let v = t.scratch in
  let best = ref (-1) in
  let best_mag = ref t.epsilon in
  for k = 0 to t.n_touched - 1 do
    let j = t.touched.(k) in
    let m = Float.abs v.(j) in
    if m > !best_mag || (m = !best_mag && j < !best) then begin
      best := j;
      best_mag := m
    end
  done;
  !best

let would_increase_rank t cols =
  reduce t cols;
  best_pivot t >= 0

(* The free columns where [r] is nonzero, out of the listed candidates
   [old] and [fresh], leaving out [p]: each once, dropping any entry
   that cancelled to exactly 0.0. *)
let relist t r ~old ~fresh p =
  t.stamp <- t.stamp + 1;
  let acc = ref [] in
  let keep j =
    if t.mark.(j) <> t.stamp then begin
      t.mark.(j) <- t.stamp;
      if j <> p && r.(j) <> 0.0 then acc := j :: !acc
    end
  in
  Array.iter keep old;
  Array.iter keep fresh;
  Array.of_list !acc

let add t cols =
  reduce t cols;
  let p = best_pivot t in
  if p < 0 then false
  else begin
    let v = t.scratch in
    let inv = 1.0 /. v.(p) in
    let res = Array.make t.n 0.0 in
    for k = 0 to t.n_touched - 1 do
      let j = t.touched.(k) in
      res.(j) <- v.(j) *. inv
    done;
    res.(p) <- 1.0;
    let written = Array.sub t.touched 0 t.n_touched in
    (* Magnitude pivoting means the pivot need not be the leftmost
       nonzero, so keep the basis fully reduced (RREF): eliminate the
       new pivot column from every existing row. Then reduction order
       no longer matters and {!reduce} stays correct. The new row is
       zero on the old pivots and outside [written], so only those
       columns change. *)
    Array.iteri
      (fun q r ->
        if Array.length r > 0 then begin
          let factor = r.(p) in
          if Float.abs factor > 0.0 then begin
            Array.iter (fun j -> r.(j) <- r.(j) -. (factor *. res.(j))) written;
            t.nz.(q) <- relist t r ~old:t.nz.(q) ~fresh:written p
          end
        end)
      t.rows;
    t.rows.(p) <- res;
    t.nz.(p) <- relist t res ~old:[||] ~fresh:written p;
    t.rank <- t.rank + 1;
    true
  end

let copy t =
  {
    t with
    rows = Array.map Array.copy t.rows;
    nz = Array.copy t.nz;
    scratch = Array.make t.n 0.0;
    touched = Array.make t.n 0;
    n_touched = 0;
    mark = Array.make t.n 0;
    stamp = 0;
  }
