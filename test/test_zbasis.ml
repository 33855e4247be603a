open Nettomo_linalg
module Prng = Nettomo_util.Prng

(* The tests below write a row as its list of ascending columns; the
   basis takes them in an array with a length. *)
let add b cols =
  let a = Array.of_list cols in
  Zbasis.add_cols b a (Array.length a)

let check = Alcotest.check
let ci = Alcotest.int
let cb = Alcotest.bool

(* A random 0/1 row over [n] columns as its ascending column list: each
   column is set with probability 1/[inv_density]. *)
let random_cols rng n inv_density =
  List.filter (fun _ -> Prng.int rng inv_density = 0) (List.init n Fun.id)

let test_empty () =
  let b = Zbasis.create 3 in
  check ci "rank 0" 0 (Zbasis.rank b);
  check ci "dimension" 3 (Zbasis.dimension b);
  check cb "no unit row in the span" false (Zbasis.mem_unit b 1);
  check cb "zero row rejected" false (add b []);
  check cb "dimension 0 is full" true (Zbasis.is_full (Zbasis.create 0))

let test_add_and_reject () =
  let b = Zbasis.create 4 in
  check cb "add 1" true (add b [ 0; 1 ]);
  check cb "add 2" true (add b [ 2; 3 ]);
  check cb "add 3" true (add b [ 0; 2 ]);
  check cb "no unit row yet" false (List.exists (Zbasis.mem_unit b) [ 0; 1; 2; 3 ]);
  (* e1 + e3 = (e0 + e1) + (e2 + e3) − (e0 + e2). *)
  check cb "dependent rejected" false (add b [ 1; 3 ]);
  check cb "independent accepted" true (add b [ 1 ]);
  check cb "full" true (Zbasis.is_full b);
  check cb "every unit row in the span" true (List.for_all (Zbasis.mem_unit b) [ 0; 1; 2; 3 ]);
  check cb "everything now dependent" false (add b [ 0; 1; 2; 3 ]);
  List.iter
    (fun cols ->
      Alcotest.check_raises "bad columns"
        (Invalid_argument "Zbasis.add_cols: columns must be ascending and below the dimension")
        (fun () -> ignore (add b cols)))
    [ [ 1; 0 ]; [ 2; 2 ]; [ 4 ]; [ -1 ] ];
  Alcotest.check_raises "column out of range"
    (Invalid_argument "Zbasis.mem_unit: column out of range") (fun () ->
      ignore (Zbasis.mem_unit b 4))

(* e0+e1+e2, e1+e2+e3 and e0+e2+e3 are independent, and their span
   holds no unit row: it is the orthogonal complement of (1, 1, −2, 1),
   which is nonzero everywhere. Against the first two, the third row
   leaves e2 + 2·e3, so the basis stores a 2: under a bound of 1 that
   row switches it to rationals, and every answer must stay the same.
   The only 0/1 rows in that span are the three themselves; adding e2
   then frees every unit row. *)
let membership_sequence ~switches b =
  List.iter (fun cols -> ignore (add b cols)) [ [ 0; 1; 2 ]; [ 1; 2; 3 ] ];
  check cb "integers so far" false (Zbasis.rational b);
  check cb "third row added" true (add b [ 0; 2; 3 ]);
  check cb "switched on the third row" switches (Zbasis.rational b);
  check ci "rank 3" 3 (Zbasis.rank b);
  check cb "no unit row" false (List.exists (Zbasis.mem_unit b) [ 0; 1; 2; 3 ]);
  check cb "a row again is dependent" false (add b [ 0; 1; 2 ]);
  check cb "e2 added" true (add b [ 2 ]);
  check cb "full" true (Zbasis.is_full b);
  check cb "every unit row" true (List.for_all (Zbasis.mem_unit b) [ 0; 1; 2; 3 ])

let test_membership () = membership_sequence ~switches:false (Zbasis.create 4)

(* The pivot goes to the column the fewest stored rows are listed at,
   not to the lowest one. e0 + e1 is pivoted at 0 and listed at column
   1; the residual of e1 + e2 has two unit entries, and column 2, with
   no row listed, wins over column 1, whose pivot would rewrite the
   first row. A repeated row is turned away, and e1, free in both
   stored rows, rewrites both. Every verdict, rank and unit-row
   membership stays the rational basis's. *)
let test_fewest_users_pivot () =
  let b = Zbasis.create 3 and slow = Basis.create 3 in
  List.iter
    (fun (cols, added, eliminations) ->
      let a = Array.of_list cols in
      let what = String.concat "+" (List.map (Printf.sprintf "e%d") cols) in
      check cb (what ^ " added") added (Zbasis.add_cols b a (Array.length a));
      ignore (Basis.add_cols slow a (Array.length a));
      check ci (what ^ ": rows rewritten") eliminations (Zbasis.eliminations b);
      check ci (what ^ ": rank") (Basis.rank slow) (Zbasis.rank b);
      List.iter
        (fun j ->
          check cb
            (Printf.sprintf "%s: e%d in the span" what j)
            (Basis.mem_unit slow j) (Zbasis.mem_unit b j))
        [ 0; 1; 2 ])
    [ ([ 0; 1 ], true, 0); ([ 1; 2 ], true, 0); ([ 0; 1 ], false, 0); ([ 1 ], true, 2) ]

(* Every verdict, rank and unit-row membership of the integer basis,
   after every add, against the rational basis fed the same rows; with
   the overflow bound lowered to [bound] when given, so the switch to
   rationals can happen anywhere in the sequence. Returns whether it
   switched. *)
let agrees ?bound rng n rows inv_density =
  let run () =
    let fast = Zbasis.create n and slow = Basis.create n in
    let ok = ref true in
    for _ = 1 to rows do
      let cols = Array.of_list (random_cols rng n inv_density) in
      let len = Array.length cols in
      let f = Zbasis.add_cols fast cols len and s = Basis.add_cols slow cols len in
      ok :=
        !ok && Bool.equal f s
        && Zbasis.rank fast = Basis.rank slow
        && Zbasis.is_full fast = Basis.is_full slow
        && List.for_all
             (fun j -> Bool.equal (Zbasis.mem_unit fast j) (Basis.mem_unit slow j))
             (List.init n Fun.id)
    done;
    (!ok, Zbasis.rational fast)
  in
  match bound with None -> run () | Some b -> Zbasis.Testing.with_bound b run

let prop_agrees_with_rational =
  QCheck2.Test.make ~name:"agrees with the rational basis" ~count:300
    QCheck2.Gen.(quad (int_bound 1_000_000) (int_range 1 24) (int_range 1 3) (int_range 0 3))
    (fun (seed, n, inv_density, bound) ->
      let rng = Prng.create seed in
      let bound = if bound = 0 then None else Some bound in
      fst (agrees ?bound rng n (2 * n) (inv_density + 1)))

(* A bound of 1 admits no value beyond ±1: denser rows over a dozen
   columns soon need a 2, so these sequences switch to rationals
   part-way and must still answer as the rational basis does; under the
   default bound none of them switches. *)
let test_forced_switch () =
  Zbasis.Testing.with_bound 1 (fun () ->
      membership_sequence ~switches:true (Zbasis.create 4));
  let rng = Prng.create 17 in
  let forced = ref 0 and default = ref 0 in
  for _ = 1 to 40 do
    let ok, s = agrees ~bound:1 rng 12 24 2 in
    check cb "bound 1: same answers" true ok;
    if s then incr forced;
    let ok, s = agrees rng 12 24 2 in
    check cb "default bound: same answers" true ok;
    if s then incr default
  done;
  check cb "bound 1 switched some sequences" true (!forced > 0);
  check ci "the default bound switched none" 0 !default;
  Alcotest.check_raises "bound below 1"
    (Invalid_argument "Zbasis.Testing.with_bound: out of range") (fun () ->
      Zbasis.Testing.with_bound 0 ignore)

(* The rows the coverage fallback feeds the search: the spanning-tree
   seeds on the bench's ISP maps under a quarter and three quarters of
   their MMP placement. Every add must get the rational basis's verdict,
   in order, and the integer basis must never need to switch. *)
let test_isp_seed_rows () =
  let module Csr = Nettomo_graph.Csr in
  let module Net = Nettomo_core.Net in
  List.iter
    (fun (name, seed) ->
      List.iter
        (fun (what, frac) ->
          let net = Fixtures.isp_prefix name seed frac in
          let csr = Csr.of_graph (Net.graph net) in
          let monitor = Array.map (Net.is_monitor net) csr.Csr.ids in
          let n = csr.Csr.m in
          let fast = Zbasis.create n and slow = Basis.create n in
          let steps = ref 0 and first_diff = ref None in
          ignore
            (Nettomo_measure.Paths.simple_candidates csr ~monitor (fun _ cols len ->
                 if
                   (not (Bool.equal (Zbasis.add_cols fast cols len) (Basis.add_cols slow cols len)))
                   && Option.is_none !first_diff
                 then first_diff := Some !steps;
                 incr steps));
          let at s = Printf.sprintf "%s, %s of its MMP monitors: %s" name what s in
          check (Alcotest.option ci) (at (Printf.sprintf "first differing of %d" !steps)) None
            !first_diff;
          check ci (at "rank") (Basis.rank slow) (Zbasis.rank fast);
          check cb (at "stays on integers") false (Zbasis.rational fast);
          check cb (at "unit rows")
            true
            (List.for_all
               (fun j -> Bool.equal (Zbasis.mem_unit fast j) (Basis.mem_unit slow j))
               (List.init n Fun.id)))
        [ ("a quarter", fun m -> m / 4); ("three quarters", fun m -> 3 * m / 4) ])
    [ ("Ebone", 50); ("Exodus", 54); ("Tiscali", 56) ]

let suite =
  [
    Alcotest.test_case "empty basis" `Quick test_empty;
    Alcotest.test_case "add and reject" `Quick test_add_and_reject;
    Alcotest.test_case "unit-row membership" `Quick test_membership;
    Alcotest.test_case "pivot where the fewest rows are listed" `Quick test_fewest_users_pivot;
    QCheck_alcotest.to_alcotest prop_agrees_with_rational;
    Alcotest.test_case "forced switch to rationals" `Quick test_forced_switch;
    Alcotest.test_case "ISP seed rows = rational basis" `Quick test_isp_seed_rows;
  ]
