module Errors = Nettomo_util.Errors

(* A stored row: its entry at its own pivot, positive, and the free
   columns where it is nonzero, in no particular order, with its values
   there; the exact 0 at every other pivot is implicit. A row that
   changes is replaced, never modified. [absent] (pivot entry 0) marks a
   column no row is pivoted at. *)
type row = { piv : int; cols : int array; vals : int array }

let absent = { piv = 0; cols = [||]; vals = [||] }

(* With every operand at most 2^30 - 1 in magnitude, a product is below
   2^60 and a product minus a product below 2^61: every intermediate is
   exact in a native int before it is checked. *)
let max_bound = (1 lsl 30) - 1
let bound = Atomic.make max_bound

exception Overflow

type t = {
  n : int;
  limit : int;  (* The bound every computed value is checked against. *)
  rows : row array;  (* [rows.(p)] is the row pivoted at [p], if any. *)
  users : int array array;
  users_len : int array;
      (* For each free column [j], the first [users_len.(j)] entries of
         [users.(j)] are the pivots of rows that may be nonzero at [j]:
         every row that is, and possibly rows that no longer are.
         Checked when visited. *)
  mutable rank : int;
  mutable eliminations : int;  (* Stored rows rewritten by accepted rows. *)
  mutable accepted : int array list;
      (* The accepted rows' columns, latest first: what a switch to
         rationals replays. *)
  mutable fallback : Basis.t option;  (* [Some] once an overflow switched. *)
  scratch : int array;
      (* The residual of the latest {!reduce}, times its scale, on the
         free columns; 0 outside the first [n_touched] entries of
         [touched], the columns it wrote, each once. *)
  touched : int array;
  mutable n_touched : int;
  work : int array;  (* A row being built by {!gather}: 0 between rows. *)
  cand : int array;  (* The columns that row may be nonzero at. *)
  mark : int array;
  mutable stamp : int;
      (* [mark.(j) = stamp] iff column [j] is already listed in the list
         being built. *)
}

let create n =
  if n < 0 then Errors.invalid_arg "Zbasis.create: negative dimension";
  {
    n;
    limit = Atomic.get bound;
    rows = Array.make n absent;
    users = Array.make n [||];
    users_len = Array.make n 0;
    rank = 0;
    eliminations = 0;
    accepted = [];
    fallback = None;
    scratch = Array.make n 0;
    touched = Array.make n 0;
    n_touched = 0;
    work = Array.make n 0;
    cand = Array.make n 0;
    mark = Array.make n 0;
    stamp = 0;
  }

let dimension t = t.n
let rank t = match t.fallback with Some b -> Basis.rank b | None -> t.rank
let is_full t = rank t = t.n
let rational t = Option.is_some t.fallback
let eliminations t = t.eliminations

let checked t x = if x > t.limit || x < -t.limit then raise Overflow else x
let rec gcd a b = if b = 0 then abs a else gcd b (a mod b)

let touch t j =
  if t.mark.(j) <> t.stamp then begin
    t.mark.(j) <- t.stamp;
    t.touched.(t.n_touched) <- j;
    t.n_touched <- t.n_touched + 1
  end

(* Reduce the 0/1 row with ones at [cols.(0..len-1)] into the scratch
   vector, as the residual times a positive scale. Rows are fully
   reduced, so subtracting one leaves every other pivot column as the
   input has it: at pivot [p] the scaled residual still reads the scale
   when [p] is one of the row's columns and 0 otherwise. Only the rows
   pivoted on those columns are subtracted, then, each only on its
   stored columns; where its pivot entry does not divide the scale, the
   residual is first multiplied by the smallest factor that makes it. *)
let reduce t cols len =
  let v = t.scratch in
  for k = 0 to t.n_touched - 1 do
    v.(t.touched.(k)) <- 0
  done;
  t.n_touched <- 0;
  t.stamp <- t.stamp + 1;
  for k = 0 to len - 1 do
    let j = cols.(k) in
    if t.rows.(j).piv = 0 then begin
      v.(j) <- 1;
      touch t j
    end
  done;
  let scale = ref 1 in
  for k = 0 to len - 1 do
    let r = t.rows.(cols.(k)) in
    if r.piv > 0 then begin
      let g = if r.piv = 1 then 1 else gcd r.piv !scale in
      let a = r.piv / g and b = !scale / g in
      if a > 1 then begin
        for i = 0 to t.n_touched - 1 do
          let j = t.touched.(i) in
          v.(j) <- checked t (a * v.(j))
        done;
        scale := checked t (a * !scale)
      end;
      for i = 0 to Array.length r.cols - 1 do
        let j = r.cols.(i) in
        v.(j) <- checked t (v.(j) - (b * r.vals.(i)));
        touch t j
      done
    end
  done

(* The pivot of the residual, or -1 when it is zero: among its
   smallest-magnitude nonzero entries, the column with the fewest listed
   users, then the lowest. A small pivot keeps the updates of other rows
   small, and 0/1 rows mostly pivot on a 1; every listed user is a row
   the acceptance may have to rewrite. The interface says why the
   choice moves no answer. *)
let best_pivot t =
  let best = ref (-1) and best_mag = ref max_int and best_users = ref max_int in
  for k = 0 to t.n_touched - 1 do
    let j = t.touched.(k) in
    let m = abs t.scratch.(j) in
    if m > 0 && m <= !best_mag then begin
      let u = t.users_len.(j) in
      if m < !best_mag || u < !best_users || (u = !best_users && j < !best) then begin
        best := j;
        best_mag := m;
        best_users := u
      end
    end
  done;
  !best

(* Note that row [q] may be nonzero at free column [j]. *)
let list_user t j q =
  let len = t.users_len.(j) in
  if len = Array.length t.users.(j) then begin
    let grown = Array.make (max 4 (2 * len)) 0 in
    Array.blit t.users.(j) 0 grown 0 len;
    t.users.(j) <- grown
  end;
  t.users.(j).(len) <- q;
  t.users_len.(j) <- len + 1

(* The row with pivot entry [piv] and the values [work] holds at the
   first [count] entries of [cand], each listed once, dropping the zeros,
   divided by their gcd and signed so the pivot entry is positive;
   clears those entries of [work]. *)
let gather t count piv =
  let w = t.work in
  let kept = ref 0 and g = ref (abs piv) in
  for i = 0 to count - 1 do
    let x = w.(t.cand.(i)) in
    if x <> 0 then begin
      incr kept;
      if !g > 1 then g := gcd !g x
    end
  done;
  let d = if piv < 0 then - !g else !g in
  let cols = Array.make !kept 0 and vals = Array.make !kept 0 in
  kept := 0;
  for i = 0 to count - 1 do
    let j = t.cand.(i) in
    if w.(j) <> 0 then begin
      cols.(!kept) <- j;
      vals.(!kept) <- w.(j) / d;
      incr kept
    end;
    w.(j) <- 0
  done;
  { piv = piv / d; cols; vals }

(* Row [q], stored as [r] with entry [e] at [p], made zero there by the
   new row [fresh] pivoted at [p]: (P/g)·r − (e/g)·fresh with P its
   pivot entry and g = gcd(P, e), made primitive. Fill-in columns get
   [q] listed. *)
let eliminate t q r e p fresh =
  let w = t.work in
  let g = gcd fresh.piv e in
  let a = fresh.piv / g and b = e / g in
  t.stamp <- t.stamp + 1;
  let count = ref 0 in
  let candidate j =
    t.mark.(j) <- t.stamp;
    t.cand.(!count) <- j;
    incr count
  in
  for i = 0 to Array.length r.cols - 1 do
    let j = r.cols.(i) in
    if j <> p then begin
      w.(j) <- checked t (a * r.vals.(i));
      candidate j
    end
  done;
  let old = !count in
  for i = 0 to Array.length fresh.cols - 1 do
    let j = fresh.cols.(i) in
    w.(j) <- checked t (w.(j) - (b * fresh.vals.(i)));
    if t.mark.(j) <> t.stamp then candidate j
  done;
  for i = old to !count - 1 do
    let j = t.cand.(i) in
    if w.(j) <> 0 then list_user t j q
  done;
  gather t !count (checked t (a * r.piv))

(* The value of stored row [r] at free column [j]. *)
let entry r j =
  let rec go i =
    if i = Array.length r.cols then 0 else if r.cols.(i) = j then r.vals.(i) else go (i + 1)
  in
  go 0

(* The residual of the latest reduction becomes a row, made primitive
   with a positive pivot entry; then the new pivot column is eliminated
   from every row listed there, so the basis stays fully reduced. *)
let add_int t cols len =
  reduce t cols len;
  let p = best_pivot t in
  p >= 0
  && begin
       let v = t.scratch in
       let count = ref 0 in
       for k = 0 to t.n_touched - 1 do
         let j = t.touched.(k) in
         if j <> p then begin
           t.work.(j) <- v.(j);
           t.cand.(!count) <- j;
           incr count
         end
       done;
       let fresh = gather t !count v.(p) in
       for i = 0 to t.users_len.(p) - 1 do
         let q = t.users.(p).(i) in
         let r = t.rows.(q) in
         let e = entry r p in
         if e <> 0 then begin
           t.rows.(q) <- eliminate t q r e p fresh;
           t.eliminations <- t.eliminations + 1
         end
       done;
       t.users.(p) <- [||];
       t.users_len.(p) <- 0;
       t.rows.(p) <- fresh;
       Array.iter (fun j -> list_user t j p) fresh.cols;
       t.rank <- t.rank + 1;
       true
     end

let add_cols t cols len =
  for k = 0 to len - 1 do
    let j = cols.(k) in
    if (k > 0 && j <= cols.(k - 1)) || j < 0 || j >= t.n then
      Errors.invalid_arg "Zbasis.add_cols: columns must be ascending and below the dimension"
  done;
  match t.fallback with
  | Some b -> Basis.add_cols b cols len
  | None -> (
      match add_int t cols len with
      | added ->
          if added then t.accepted <- Array.sub cols 0 len :: t.accepted;
          added
      | exception Overflow ->
          let b = Basis.create t.n in
          List.iter (fun c -> ignore (Basis.add_cols b c (Array.length c))) (List.rev t.accepted);
          t.fallback <- Some b;
          t.accepted <- [];
          Basis.add_cols b cols len)

let mem_unit t j =
  if j < 0 || j >= t.n then Errors.invalid_arg "Zbasis.mem_unit: column out of range";
  match t.fallback with
  | Some b -> Basis.mem_unit b j
  | None -> t.rows.(j).piv > 0 && Array.length t.rows.(j).cols = 0

module Testing = struct
  let with_bound b f =
    if b < 1 || b > max_bound then Errors.invalid_arg "Zbasis.Testing.with_bound: out of range";
    let saved = Atomic.exchange bound b in
    Fun.protect ~finally:(fun () -> Atomic.set bound saved) f
end
