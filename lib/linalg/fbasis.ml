module Errors = Nettomo_util.Errors

(* A stored row without its pivot: the free columns where it is
   nonzero, in no particular order, and its values there. The 1.0 at its
   own pivot and the exact 0.0 at every other pivot are implicit. A row
   that changes is replaced, never modified, so copies share rows. *)
type row = { cols : int array; vals : float array }

(* A residual entry counts as zero up to this magnitude. *)
let epsilon = 1e-9

type t = {
  n : int;
  rows : row option array;
      (* [rows.(p)] is the row whose pivot is column [p], scaled to 1.0
         there; [None] when column [p] is not a pivot. Every row is
         exactly zero at every pivot but its own, so arithmetic only
         ever changes a vector on the non-pivot (free) columns and its
         own pivot. *)
  users : int array array;
  users_len : int array;
      (* For each free column [j], the first [users_len.(j)] entries of
         [users.(j)] are the pivots of rows that may be nonzero at [j]:
         every row that is, and possibly rows that no longer are, some
         of them more than once. Checked when visited. *)
  mutable rank : int;
  scratch : float array;
      (* The residual of the latest {!reduce}, meaningful on the free
         columns only, and 0.0 on every free column outside [touched].
         Owned by this basis, so no reduction allocates. *)
  touched : int array;
      (* Its first [n_touched] entries are the free columns the latest
         {!reduce} wrote, each once. *)
  mutable n_touched : int;
  work : float array;
      (* A row being updated by {!add}: 0.0 between updates. *)
  cand : int array;
      (* The columns that row may be nonzero at. *)
  mark : int array;
  mutable stamp : int;
      (* [mark.(j) = stamp] iff column [j] is already listed in the
         list being built. *)
}

let create n =
  if n < 0 then Errors.invalid_arg "Fbasis.create: negative dimension";
  {
    n;
    rows = Array.make n None;
    users = Array.make n [||];
    users_len = Array.make n 0;
    rank = 0;
    scratch = Array.make n 0.0;
    touched = Array.make n 0;
    n_touched = 0;
    work = Array.make n 0.0;
    cand = Array.make n 0;
    mark = Array.make n 0;
    stamp = 0;
  }

let dimension t = t.n
let rank t = t.rank
let is_full t = t.rank = t.n
let is_pivot t j = Option.is_some t.rows.(j)

let touch t j =
  if t.mark.(j) <> t.stamp then begin
    t.mark.(j) <- t.stamp;
    t.touched.(t.n_touched) <- j;
    t.n_touched <- t.n_touched + 1
  end

(* Reduce the 0/1 row with ones at [cols.(0..len-1)] into the scratch
   vector. Rows are kept fully reduced, so subtracting a row leaves
   every other pivot column untouched: the factor at pivot [p] is the
   input's own entry, exactly 1.0 when [p] is one of the row's columns
   and 0.0 otherwise. Only the rows pivoted on those columns are
   subtracted, then, in increasing pivot order, and each only on its
   stored nonzero columns. A dense reduction over every row and column
   would also subtract the exact zeros, which leaves every nonzero value
   as it is; the residual is zero on every pivot column, so only free
   columns are ever read back. *)
let reduce t cols len =
  let v = t.scratch in
  for k = 0 to t.n_touched - 1 do
    v.(t.touched.(k)) <- 0.0
  done;
  t.n_touched <- 0;
  t.stamp <- t.stamp + 1;
  for k = 0 to len - 1 do
    let j = cols.(k) in
    if (k > 0 && j <= cols.(k - 1)) || j < 0 || j >= t.n then
      Errors.invalid_arg "Fbasis: columns must be ascending and below the dimension";
    if not (is_pivot t j) then begin
      v.(j) <- 1.0;
      touch t j
    end
  done;
  for k = 0 to len - 1 do
    match t.rows.(cols.(k)) with
    | None -> ()
    | Some r ->
        for i = 0 to Array.length r.cols - 1 do
          let j = r.cols.(i) in
          v.(j) <- v.(j) -. r.vals.(i);
          touch t j
        done
  done

(* Largest-magnitude residual entry, lowest column on ties, or -1 when
   every entry is within [epsilon]: partial pivoting keeps the basis
   numerically tame. Only the written free columns can win; every other
   free column is 0.0. *)
let best_pivot t =
  let v = t.scratch in
  let best = ref (-1) in
  let best_mag = ref epsilon in
  for k = 0 to t.n_touched - 1 do
    let j = t.touched.(k) in
    let m = Float.abs v.(j) in
    if m > !best_mag || (m = !best_mag && j < !best) then begin
      best := j;
      best_mag := m
    end
  done;
  !best

let would_increase_rank t cols len =
  reduce t cols len;
  best_pivot t >= 0

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

(* The row made of the values [work] holds at the first [count] entries
   of [cand], each listed once, dropping any that is exactly 0.0; clears
   those entries of [work]. *)
let gather t count =
  let w = t.work in
  let kept = ref 0 in
  for i = 0 to count - 1 do
    if w.(t.cand.(i)) <> 0.0 then incr kept
  done;
  let cols = Array.make !kept 0 and vals = Array.make !kept 0.0 in
  kept := 0;
  for i = 0 to count - 1 do
    let j = t.cand.(i) in
    if w.(j) <> 0.0 then begin
      cols.(!kept) <- j;
      vals.(!kept) <- w.(j);
      incr kept
    end;
    w.(j) <- 0.0
  done;
  { cols; vals }

(* Row [q], stored as [r], minus [factor] times the new row [fresh]
   pivoted at [p]: the dense update [r.(j) -. (factor *. fresh.(j))] on
   [fresh]'s columns, with an absent entry of [r] read as 0.0. Entries
   of [r] outside [fresh]'s columns are unchanged, and its entry at [p]
   cancels to exactly 0.0. Fill-in columns get [q] listed. *)
let eliminate t q r factor p fresh =
  let w = t.work in
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
      w.(j) <- r.vals.(i);
      candidate j
    end
  done;
  let old = !count in
  for i = 0 to Array.length fresh.cols - 1 do
    let j = fresh.cols.(i) in
    w.(j) <- w.(j) -. (factor *. fresh.vals.(i));
    if t.mark.(j) <> t.stamp then candidate j
  done;
  for i = old to !count - 1 do
    let j = t.cand.(i) in
    if w.(j) <> 0.0 then list_user t j q
  done;
  gather t !count

(* The value of stored row [r] at free column [j]. *)
let entry r j =
  let rec go i =
    if i = Array.length r.cols then 0.0 else if r.cols.(i) = j then r.vals.(i) else go (i + 1)
  in
  go 0

(* The residual of the latest reduction, still in the scratch vector,
   becomes a row: no second reduction of a row the caller has just
   tested. *)
let add_reduced t =
  let p = best_pivot t in
  if p < 0 then false
  else begin
    let v = t.scratch in
    let inv = 1.0 /. v.(p) in
    let count = ref 0 in
    for k = 0 to t.n_touched - 1 do
      let j = t.touched.(k) in
      if j <> p then begin
        t.work.(j) <- v.(j) *. inv;
        t.cand.(!count) <- j;
        incr count
      end
    done;
    let fresh = gather t !count in
    (* Magnitude pivoting means the pivot need not be the leftmost
       nonzero, so keep the basis fully reduced (RREF): eliminate the
       new pivot column from every existing row. Only the rows listed
       at [p] can be nonzero there; a listed row that no longer is gets
       a factor of 0.0 and is skipped, as a dense update skips it. *)
    for i = 0 to t.users_len.(p) - 1 do
      let q = t.users.(p).(i) in
      match t.rows.(q) with
      | None -> ()
      | Some r ->
          let factor = entry r p in
          if Float.abs factor > 0.0 then t.rows.(q) <- Some (eliminate t q r factor p fresh)
    done;
    t.users.(p) <- [||];
    t.users_len.(p) <- 0;
    t.rows.(p) <- Some fresh;
    Array.iter (fun j -> list_user t j p) fresh.cols;
    t.rank <- t.rank + 1;
    true
  end

let add t cols len =
  reduce t cols len;
  add_reduced t

let copy t =
  {
    t with
    rows = Array.copy t.rows;
    users = Array.map Array.copy t.users;
    users_len = Array.copy t.users_len;
    scratch = Array.make t.n 0.0;
    touched = Array.make t.n 0;
    n_touched = 0;
    work = Array.make t.n 0.0;
    cand = Array.make t.n 0;
    mark = Array.make t.n 0;
    stamp = 0;
  }
