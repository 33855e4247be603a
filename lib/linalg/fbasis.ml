module Errors = Nettomo_util.Errors
type t = {
  n : int;
  epsilon : float;
  mutable rows : (int * float array) list;
      (* Sorted by pivot column; each row scaled to 1.0 at its pivot. *)
  mutable free : int array;
      (* The non-pivot columns, ascending. Every row is exactly zero at
         every pivot but its own, so arithmetic only ever changes a
         vector on these columns and its own pivot. *)
}

let create ?(epsilon = 1e-9) n =
  if n < 0 then Errors.invalid_arg "Fbasis.create: negative dimension";
  { n; epsilon; rows = []; free = Array.init n Fun.id }

let dimension t = t.n
let rank t = List.length t.rows
let is_full t = rank t = t.n

let check_dim t v =
  if Array.length v <> t.n then Errors.invalid_arg "Fbasis: dimension mismatch"

let reduce t v =
  check_dim t v;
  let v = Array.copy v in
  (* Magnitude pivots mean a row may have nonzero entries on either side
     of its pivot, so subtraction must span every free column. Rows are
     kept fully reduced (zero at all other pivots), so subtracting a row
     leaves the other pivot columns — and hence the later factors —
     untouched, and zeroes its own pivot exactly (factor - factor·1). *)
  let free = t.free in
  List.iter
    (fun (p, r) ->
      let factor = v.(p) in
      if Float.abs factor > 0.0 then begin
        for k = 0 to Array.length free - 1 do
          let j = free.(k) in
          v.(j) <- v.(j) -. (factor *. r.(j))
        done;
        v.(p) <- 0.0
      end)
    t.rows;
  v

(* Largest-magnitude residual entry, first one on ties: partial pivoting
   keeps the basis numerically tame. A residual is zero on every pivot
   column, so only free columns can win. *)
let best_pivot t v =
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
  if !best < 0 then None else Some !best

let would_increase_rank t v = best_pivot t (reduce t v) <> None

let add t v =
  let res = reduce t v in
  match best_pivot t res with
  | None -> false
  | Some p ->
      let free = t.free in
      let inv = 1.0 /. res.(p) in
      Array.iter (fun j -> res.(j) <- res.(j) *. inv) free;
      res.(p) <- 1.0;
      (* Magnitude pivoting means the pivot need not be the leftmost
         nonzero, so keep the basis fully reduced (RREF): eliminate the
         new pivot column from every existing row. Then reduction order
         no longer matters and {!reduce} stays correct. The new row is
         zero on the old pivots, so only free columns change. *)
      List.iter
        (fun (_, r) ->
          let factor = r.(p) in
          if Float.abs factor > 0.0 then
            for k = 0 to Array.length free - 1 do
              let j = free.(k) in
              r.(j) <- r.(j) -. (factor *. res.(j))
            done)
        t.rows;
      let rec insert = function
        | [] -> [ (p, res) ]
        | (p', _) :: _ as rest when p < p' -> (p, res) :: rest
        | x :: rest -> x :: insert rest
      in
      t.rows <- insert t.rows;
      t.free <- Array.of_list (List.filter (fun j -> j <> p) (Array.to_list free));
      true

let copy t =
  {
    n = t.n;
    epsilon = t.epsilon;
    rows = List.map (fun (p, r) -> (p, Array.copy r)) t.rows;
    free = t.free;
  }
