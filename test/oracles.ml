(* Reference implementations the fast paths are tested against. *)

open Nettomo_core
module Basis = Nettomo_linalg.Basis
module Bigint = Nettomo_linalg.Bigint
module Rational = Nettomo_linalg.Rational

(* A basis rebuilt from a finished plan: every plan row added, in
   order, to an empty basis. The reference for the basis the solver's
   search hands out. *)
let basis_of_plan space (plan : Solver.plan) =
  let basis = Basis.create (Measurement.n_links space) in
  List.iter
    (fun p -> ignore (Basis.add basis (Measurement.incidence_row space p)))
    plan.Solver.paths;
  basis

(* Which links' unit vectors lie in the span, in link-column order. *)
let unit_membership space basis =
  let n = Measurement.n_links space in
  List.init n (fun j ->
      let unit = Array.make n Rational.zero in
      unit.(j) <- Rational.one;
      Basis.mem basis unit)

(* The coverage fallback's spanning-tree seeds as node lists, the way
   they were generated before the search moved onto link numbers: per
   root (the first 8 monitors), the tree paths to every other monitor,
   then per link orientation (u,v) up to 3 node-simple detours
   r → u, (u,v), v → b. The reference for [Measure.Paths.simple_candidates],
   whose rows must be these paths' link columns, in the same order. *)
let simple_candidates net =
  let open Nettomo_graph in
  let csr = Csr.of_graph (Net.graph net) in
  let monitors = List.map (Csr.index csr) (Net.monitor_list net) in
  let roots = List.filteri (fun i _ -> i < 8) monitors in
  let to_ids ixs = List.map (fun ix -> csr.Csr.ids.(ix)) ixs in
  let on_stem = Array.make csr.Csr.n (-1) and stamp = ref 0 in
  let acc = ref [] in
  List.iter
    (fun r ->
      let { Csr.parent; depth; _ } = Csr.bfs csr r in
      let lca a b =
        let a = ref a and b = ref b in
        while depth.(!a) > depth.(!b) do
          a := parent.(!a)
        done;
        while depth.(!b) > depth.(!a) do
          b := parent.(!b)
        done;
        while !a <> !b do
          a := parent.(!a);
          b := parent.(!b)
        done;
        !a
      in
      let climb a stop =
        let rec go x acc = if x = stop then List.rev (x :: acc) else go parent.(x) (x :: acc) in
        go a []
      in
      let tree_path a b =
        let anc = lca a b in
        climb a anc @ List.tl (List.rev (climb b anc))
      in
      List.iter
        (fun b -> if b <> r && depth.(b) >= 0 then acc := to_ids (tree_path r b) :: !acc)
        monitors;
      for k = 0 to csr.Csr.m - 1 do
        let iu, iv = Csr.endpoints csr k in
        if depth.(iu) >= 0 && depth.(iv) >= 0 then
          List.iter
            (fun (u, v) ->
              if parent.(u) <> v && parent.(v) <> u then begin
                let stem = List.rev (climb u r) in
                incr stamp;
                List.iter (fun x -> on_stem.(x) <- !stamp) stem;
                let emitted = ref 0 in
                List.iter
                  (fun b ->
                    if !emitted < 3 && b <> r && depth.(b) >= 0 then begin
                      let tail = tree_path v b in
                      if List.for_all (fun x -> on_stem.(x) <> !stamp) tail then begin
                        acc := to_ids (stem @ tail) :: !acc;
                        incr emitted
                      end
                    end)
                  monitors
              end)
            [ (iu, iv); (iv, iu) ]
      done)
    roots;
  List.rev !acc

(* Rational arithmetic with every value a normalized Bigint pair and
   every operation through Bigint: the reference for the small/big
   representation. *)
module Qref = struct
  type t = { num : Bigint.t; den : Bigint.t }

  let make num den =
    if Bigint.is_zero den then raise Division_by_zero;
    if Bigint.is_zero num then { num = Bigint.zero; den = Bigint.one }
    else begin
      let num, den =
        if Bigint.sign den < 0 then (Bigint.neg num, Bigint.neg den)
        else (num, den)
      in
      let g = Bigint.gcd num den in
      { num = Bigint.div num g; den = Bigint.div den g }
    end

  let compare a b =
    Bigint.compare (Bigint.mul a.num b.den) (Bigint.mul b.num a.den)

  let equal a b = Bigint.equal a.num b.num && Bigint.equal a.den b.den
  let neg t = { t with num = Bigint.neg t.num }

  let add a b =
    make
      (Bigint.add (Bigint.mul a.num b.den) (Bigint.mul b.num a.den))
      (Bigint.mul a.den b.den)

  let sub a b = add a (neg b)
  let mul a b = make (Bigint.mul a.num b.num) (Bigint.mul a.den b.den)

  let inv t =
    if Bigint.is_zero t.num then raise Division_by_zero;
    make t.den t.num

  let div a b = mul a (inv b)
  let to_float t = Bigint.to_float t.num /. Bigint.to_float t.den

  let to_string t =
    if Bigint.equal t.den Bigint.one then Bigint.to_string t.num
    else Bigint.to_string t.num ^ "/" ^ Bigint.to_string t.den

  (* The fast value agrees with the reference one: same numerator and
     denominator. *)
  let agrees q r =
    Bigint.equal (Rational.num q) r.num && Bigint.equal (Rational.den q) r.den
end

(* The float prefilter basis on dense rows, with every reduction
   visiting every row and every reduction and row update spanning all n
   columns: the reference for the column-row basis, which subtracts only
   the rows pivoted on a candidate's columns, only on the free columns,
   and must reach the same verdicts. *)
module Fbasis_ref = struct
  type t = { n : int; epsilon : float; mutable rows : (int * float array) list }

  let create ?(epsilon = 1e-9) n = { n; epsilon; rows = [] }
  let rank t = List.length t.rows

  let reduce t v =
    let v = Array.copy v in
    List.iter
      (fun (p, r) ->
        let factor = v.(p) in
        if Float.abs factor > 0.0 then
          for j = 0 to t.n - 1 do
            v.(j) <- v.(j) -. (factor *. r.(j))
          done)
      t.rows;
    v

  let best_pivot t v =
    let best = ref (-1) in
    let best_mag = ref t.epsilon in
    Array.iteri
      (fun j x ->
        let m = Float.abs x in
        if m > !best_mag then begin
          best := j;
          best_mag := m
        end)
      v;
    if !best < 0 then None else Some !best

  let would_increase_rank t v = best_pivot t (reduce t v) <> None

  let add t v =
    let res = reduce t v in
    match best_pivot t res with
    | None -> false
    | Some p ->
        let inv = 1.0 /. res.(p) in
        Array.iteri (fun j x -> res.(j) <- x *. inv) res;
        res.(p) <- 1.0;
        List.iter
          (fun (_, r) ->
            let factor = r.(p) in
            if Float.abs factor > 0.0 then
              for j = 0 to t.n - 1 do
                r.(j) <- r.(j) -. (factor *. res.(j))
              done)
          t.rows;
        let rec insert = function
          | [] -> [ (p, res) ]
          | (p', _) :: _ as rest when p < p' -> (p, res) :: rest
          | x :: rest -> x :: insert rest
        in
        t.rows <- insert t.rows;
        true

  let copy t = { t with rows = List.map (fun (p, r) -> (p, Array.copy r)) t.rows }
end

(* The exact basis on dense rows: rows kept as full-width rational
   arrays in a list sorted by pivot, and elimination walking that list,
   each applied row scanned across every column after its pivot. The
   reference for the sparse-row basis, which must store the same rows
   and give the same residuals and answers. *)
module Basis_ref = struct
  module Q = Rational

  type t = { n : int; mutable rows : (int * Q.t array) list; mutable rank : int }

  let create n = { n; rows = []; rank = 0 }
  let rank t = t.rank

  let eliminate t v rows =
    List.iter
      (fun (p, r) ->
        if not (Q.is_zero v.(p)) then begin
          let factor = v.(p) in
          for j = p to t.n - 1 do
            let rj = r.(j) in
            if not (Q.is_zero rj) then v.(j) <- Q.sub v.(j) (Q.mul factor rj)
          done
        end)
      rows

  let reduce t v =
    let v = Array.copy v in
    eliminate t v t.rows;
    v

  let first_nonzero v =
    let n = Array.length v in
    let rec loop j = if j >= n then None else if Q.is_zero v.(j) then loop (j + 1) else Some j in
    loop 0

  let mem t v = first_nonzero (reduce t v) = None

  let mem_unit t j =
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
end
