open Nettomo_graph

let check = Alcotest.check
let ci = Alcotest.int
let cb = Alcotest.bool

let test_is_simple_path () =
  let g = Fixtures.fig1 in
  check cb "valid path" true (Paths.is_simple_path g [ 0; 4; 5; 2 ]);
  check cb "single node is not a path" false (Paths.is_simple_path g [ 0 ]);
  check cb "empty is not a path" false (Paths.is_simple_path g []);
  check cb "repeated node" false (Paths.is_simple_path g [ 0; 4; 0 ]);
  check cb "missing edge" false (Paths.is_simple_path g [ 0; 1 ]);
  check cb "unknown node" false (Paths.is_simple_path g [ 0; 42 ])

let test_path_edges () =
  check
    (Alcotest.list Fixtures.edge_testable)
    "edges normalized"
    [ (0, 4); (4, 5); (2, 5) ]
    (Paths.path_edges [ 0; 4; 5; 2 ]);
  Alcotest.check_raises "too short"
    (Invalid_argument "Paths.path_edges: need at least two nodes") (fun () ->
      ignore (Paths.path_edges [ 3 ]))

let test_length () =
  check ci "length" 3 (Paths.length [ 0; 4; 5; 2 ])

let test_all_simple_paths_cycle () =
  (* On a cycle there are exactly two simple paths between any pair. *)
  let ps = Paths.all_simple_paths (Fixtures.cycle_graph 6) 0 3 in
  check ci "two paths" 2 (List.length ps);
  List.iter
    (fun p ->
      check cb "each is simple" true
        (Paths.is_simple_path (Fixtures.cycle_graph 6) p))
    ps

let test_all_simple_paths_k4 () =
  (* K4 between adjacent nodes: direct, 2 via one intermediate, 2 via both
     orders of two intermediates = 5. *)
  check ci "k4 paths" 5 (List.length (Paths.all_simple_paths Fixtures.k4 0 1))

let test_all_simple_paths_disconnected () =
  let g = Graph.of_edges [ (0, 1); (2, 3) ] in
  check ci "no paths across components" 0
    (List.length (Paths.all_simple_paths g 0 3))

(* The number of paths [iter_simple_paths] passes to its callback. *)
let count_simple_paths g src dst =
  let n = ref 0 in
  Paths.iter_simple_paths g src dst (fun _ -> incr n);
  !n

let test_count_matches_enumeration () =
  let g = Fixtures.petersen in
  check ci "count = length of enumeration"
    (List.length (Paths.all_simple_paths g 0 6))
    (count_simple_paths g 0 6)

let test_limit () =
  check cb "limit raises" true
    (try
       ignore (Paths.all_simple_paths ~limit:2 Fixtures.k5 0 1);
       false
     with Paths.Limit_exceeded -> true)

let test_random_simple_path () =
  let rng = Nettomo_util.Prng.create 42 in
  let g = Fixtures.petersen in
  for _ = 1 to 50 do
    match Paths.random_simple_path rng g 0 7 with
    | Some p ->
        check cb "simple" true (Paths.is_simple_path g p);
        check ci "starts at 0" 0 (List.hd p);
        check ci "ends at 7" 7 (List.nth p (List.length p - 1))
    | None -> Alcotest.fail "path must exist"
  done;
  let g2 = Graph.of_edges [ (0, 1); (2, 3) ] in
  check cb "none across components" true
    (Paths.random_simple_path rng g2 0 3 = None)

let test_random_path_variety () =
  (* The randomized search should find several distinct paths. *)
  let rng = Nettomo_util.Prng.create 7 in
  let seen = Hashtbl.create 16 in
  for _ = 1 to 100 do
    match Paths.random_simple_path rng Fixtures.k4 0 1 with
    | Some p -> Hashtbl.replace seen p ()
    | None -> Alcotest.fail "path must exist"
  done;
  check cb "at least 3 distinct paths out of 5" true (Hashtbl.length seen >= 3)

let prop_enumerated_paths_simple_and_distinct =
  QCheck2.Test.make ~name:"enumerated paths are simple and distinct" ~count:150
    QCheck2.Gen.(triple (int_bound 100_000) (int_range 3 9) (int_range 0 8))
    (fun (seed, n, extra) ->
      let rng = Nettomo_util.Prng.create seed in
      let g = Fixtures.random_connected rng n extra in
      let ps = Paths.all_simple_paths g 0 (n - 1) in
      List.for_all (Paths.is_simple_path g) ps
      && List.length (List.sort_uniq compare ps) = List.length ps)

(* Brute-force oracle for both enumerators, sharing no code with their
   DFS: every ordered sequence of distinct intermediate nodes, counted
   when [src], the sequence and [dst] are linked one to the next. *)
let rec arrangements pool =
  []
  :: List.concat_map
       (fun x ->
         List.map (List.cons x) (arrangements (List.filter (( <> ) x) pool)))
       pool

let brute_force_count g src dst =
  let rec linked = function
    | a :: (b :: _ as rest) -> Graph.mem_edge g a b && linked rest
    | [ _ ] | [] -> true
  in
  let inner = List.filter (fun v -> v <> src && v <> dst) (Graph.nodes g) in
  List.length
    (List.filter
       (fun mid -> linked ((src :: mid) @ [ dst ]))
       (arrangements inner))

let prop_enumerators_match_brute_force =
  QCheck2.Test.make ~name:"enumerators = brute-force count on <= 7 nodes"
    ~count:200
    QCheck2.Gen.(pair (int_bound 1_000_000) (int_range 2 7))
    (fun (seed, n) ->
      let rng = Nettomo_util.Prng.create seed in
      let p = Nettomo_util.Prng.int rng 101 in
      let edges =
        List.concat_map
          (fun u ->
            List.filter_map
              (fun v ->
                if Nettomo_util.Prng.int rng 100 < p then Some (u, v) else None)
              (List.init (n - u - 1) (fun k -> u + k + 1)))
          (List.init n Fun.id)
      in
      let g = Graph.of_edges ~nodes:(List.init n Fun.id) edges in
      let src = Nettomo_util.Prng.int rng n in
      let dst = (src + 1 + Nettomo_util.Prng.int rng (n - 1)) mod n in
      let want = brute_force_count g src dst in
      count_simple_paths g src dst = want
      && List.length (Paths.all_simple_paths g src dst) = want)

let suite =
  [
    Alcotest.test_case "is_simple_path" `Quick test_is_simple_path;
    Alcotest.test_case "path_edges" `Quick test_path_edges;
    Alcotest.test_case "length" `Quick test_length;
    Alcotest.test_case "cycle enumeration" `Quick test_all_simple_paths_cycle;
    Alcotest.test_case "k4 enumeration" `Quick test_all_simple_paths_k4;
    Alcotest.test_case "no paths across components" `Quick
      test_all_simple_paths_disconnected;
    Alcotest.test_case "count matches enumeration" `Quick
      test_count_matches_enumeration;
    Alcotest.test_case "limit guard" `Quick test_limit;
    Alcotest.test_case "random simple path" `Quick test_random_simple_path;
    Alcotest.test_case "random path variety" `Quick test_random_path_variety;
    QCheck_alcotest.to_alcotest prop_enumerated_paths_simple_and_distinct;
    QCheck_alcotest.to_alcotest prop_enumerators_match_brute_force;
  ]
