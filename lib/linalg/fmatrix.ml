module Errors = Nettomo_util.Errors
type t = { m : int; n : int; a : float array array }

let init m n f =
  if m <= 0 || n <= 0 then Errors.invalid_arg "Fmatrix.init: non-positive dimension";
  { m; n; a = Array.init m (fun i -> Array.init n (f i)) }

let of_rows rows =
  let m = Array.length rows in
  if m = 0 then Errors.invalid_arg "Fmatrix.of_rows: no rows";
  let n = Array.length rows.(0) in
  if n = 0 then Errors.invalid_arg "Fmatrix.of_rows: empty rows";
  if not (Array.for_all (fun r -> Array.length r = n) rows) then
    Errors.invalid_arg "Fmatrix.of_rows: ragged rows";
  { m; n; a = Array.map Array.copy rows }

let of_matrix x =
  init (Matrix.rows x) (Matrix.cols x) (fun i j -> Rational.to_float (Matrix.get x i j))

let rows t = t.m
let cols t = t.n

let get t i j =
  if i < 0 || i >= t.m || j < 0 || j >= t.n then
    Errors.invalid_arg "Fmatrix.get: out of bounds";
  t.a.(i).(j)

let mul_vec t v =
  if Array.length v <> t.n then Errors.invalid_arg "Fmatrix.mul_vec: dimension mismatch";
  Array.init t.m (fun i ->
      let acc = ref 0.0 in
      for j = 0 to t.n - 1 do
        acc := !acc +. (t.a.(i).(j) *. v.(j))
      done;
      !acc)

let transpose t = init t.n t.m (fun i j -> t.a.(j).(i))

let solve t b =
  if t.m <> t.n then Errors.invalid_arg "Fmatrix.solve: not square";
  if Array.length b <> t.m then Errors.invalid_arg "Fmatrix.solve: dimension mismatch";
  let n = t.n in
  let a = Array.map Array.copy t.a in
  let x = Array.copy b in
  let singular = ref false in
  (try
     for col = 0 to n - 1 do
       (* Partial pivoting: the largest magnitude in the column. *)
       let pivot = ref col in
       for i = col + 1 to n - 1 do
         if Float.abs a.(i).(col) > Float.abs a.(!pivot).(col) then pivot := i
       done;
       if Float.abs a.(!pivot).(col) < 1e-12 then begin
         singular := true;
         raise Exit
       end;
       if !pivot <> col then begin
         let tmp = a.(col) in
         a.(col) <- a.(!pivot);
         a.(!pivot) <- tmp;
         let tb = x.(col) in
         x.(col) <- x.(!pivot);
         x.(!pivot) <- tb
       end;
       for i = col + 1 to n - 1 do
         let factor = a.(i).(col) /. a.(col).(col) in
         if factor <> 0.0 then begin
           for j = col to n - 1 do
             a.(i).(j) <- a.(i).(j) -. (factor *. a.(col).(j))
           done;
           x.(i) <- x.(i) -. (factor *. x.(col))
         end
       done
     done
   with Exit -> ());
  if !singular then None
  else begin
    (* Back substitution. *)
    for i = n - 1 downto 0 do
      let acc = ref x.(i) in
      for j = i + 1 to n - 1 do
        acc := !acc -. (a.(i).(j) *. x.(j))
      done;
      x.(i) <- !acc /. a.(i).(i)
    done;
    Some x
  end

let least_squares t b =
  if Array.length b <> t.m then
    Errors.invalid_arg "Fmatrix.least_squares: dimension mismatch";
  if t.m < t.n then Errors.invalid_arg "Fmatrix.least_squares: fewer rows than columns";
  (* Normal equations AᵀA x = Aᵀ b — adequate for the well-conditioned
     0/1 measurement matrices this library produces. *)
  let at = transpose t in
  let ata =
    init t.n t.n (fun i j ->
        let acc = ref 0.0 in
        for k = 0 to t.m - 1 do
          acc := !acc +. (at.a.(i).(k) *. at.a.(j).(k))
        done;
        !acc)
  in
  let atb = mul_vec at b in
  solve ata atb

let residual_norm t x b =
  let ax = mul_vec t x in
  let acc = ref 0.0 in
  Array.iteri (fun i v -> acc := !acc +. ((v -. b.(i)) ** 2.0)) ax;
  sqrt !acc
