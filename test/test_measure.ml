open Nettomo_graph
open Nettomo_core
module Measure_paths = Nettomo_measure.Paths
module Measure_solve = Nettomo_measure.Solve
module Prng = Nettomo_util.Prng
module Invariant = Nettomo_util.Invariant

let check = Alcotest.check
let ci = Alcotest.int
let cb = Alcotest.bool

let fig1_net =
  Net.create Fixtures.fig1
    ~monitors:[ Fixtures.fig1_m1; Fixtures.fig1_m2; Fixtures.fig1_m3 ]

let float_weights g truth =
  Array.map
    (fun e -> Nettomo_linalg.Rational.to_float (Measurement.weight truth e))
    (Array.of_list (Graph.edges g))

let metrics_match_truth (sol : Measure_solve.solution) truth ~tol =
  Array.for_all2
    (fun e m ->
      let exact = Nettomo_linalg.Rational.to_float (Measurement.weight truth e) in
      Float.abs (m -. exact) <= tol *. Float.max 1.0 (Float.abs exact))
    sol.Measure_solve.links sol.Measure_solve.metrics

(* --- Csr ------------------------------------------------------------- *)

(* The measurement layer walks the graph's flat form ({!Csr}); a BFS
   over its arrays must reach exactly what the graph reaches. *)
let csr_connected (c : Csr.t) =
  c.Csr.n = 0
  ||
  let seen = Array.make c.Csr.n false in
  let queue = Queue.create () in
  seen.(0) <- true;
  Queue.add 0 queue;
  let reached = ref 1 in
  while not (Queue.is_empty queue) do
    let i = Queue.pop queue in
    for k = c.Csr.xadj.(i) to c.Csr.xadj.(i + 1) - 1 do
      let j = c.Csr.adj.(k) in
      if not seen.(j) then begin
        seen.(j) <- true;
        incr reached;
        Queue.add j queue
      end
    done
  done;
  !reached = c.Csr.n

let test_csr_roundtrip () =
  let csr = Csr.of_graph (Net.graph fig1_net) in
  check ci "nodes" (Graph.n_nodes Fixtures.fig1) csr.Csr.n;
  check ci "links" (Graph.n_edges Fixtures.fig1) csr.Csr.m;
  Invariant.with_enabled true (fun () -> Csr.Invariant.check Fixtures.fig1 csr);
  (* Link order is the measurement column order. *)
  let space = Measurement.space Fixtures.fig1 in
  for k = 0 to csr.Csr.m - 1 do
    check ci "column order" k (Measurement.column space (Csr.edge csr k))
  done;
  check cb "connected" true (csr_connected csr);
  let monitor_indices =
    List.sort_uniq compare
      (List.map (Csr.index csr) (Graph.NodeSet.elements (Net.monitors fig1_net)))
  in
  check ci "monitor count" 3 (List.length monitor_indices)

let prop_csr_invariant =
  QCheck2.Test.make ~name:"Csr matches its source graph" ~count:100
    QCheck2.Gen.(triple (int_bound 1_000_000) (int_range 2 25) (int_range 0 30))
    (fun (seed, n, extra) ->
      let rng = Prng.create seed in
      let g = Fixtures.random_connected rng n extra in
      let csr = Csr.of_graph g in
      Invariant.with_enabled true (fun () -> Csr.Invariant.check g csr);
      csr_connected csr = Traversal.is_connected g)

(* --- Paths ----------------------------------------------------------- *)

let test_plan_counts_fig1 () =
  match Measure_paths.plan fig1_net with
  | Error e -> Alcotest.fail e
  | Ok plan ->
      check ci "one measurement per link" (Graph.n_edges Fixtures.fig1)
        (Array.length plan.Measure_paths.kinds);
      Invariant.with_enabled true (fun () ->
          Measure_paths.Invariant.check fig1_net plan)

let test_plan_rejects () =
  let two = Net.with_monitors fig1_net [ Fixtures.fig1_m1 ] in
  (match Measure_paths.plan two with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted a single monitor");
  let g = Graph.of_edges ~nodes:[ 9 ] [ (0, 1) ] in
  let net = Net.create g ~monitors:[ 0; 1 ] in
  match Measure_paths.plan net with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted a disconnected topology"

let test_walks_are_walks () =
  match Measure_paths.plan fig1_net with
  | Error e -> Alcotest.fail e
  | Ok plan ->
      let g = Fixtures.fig1 in
      let monitors = Net.monitors fig1_net in
      let csr = plan.Measure_paths.csr in
      (* Walk measurement [i]'s links from the root: each must be a
         link of the graph at the node the walk has reached. *)
      let step x k =
        let a, b = Csr.endpoints csr k in
        check cb "consecutive nodes adjacent" true
          ((x = a || x = b) && Graph.mem_edge g csr.ids.(a) csr.ids.(b));
        if x = a then b else a
      in
      for i = 0 to Array.length plan.Measure_paths.kinds - 1 do
        let first = plan.Measure_paths.root in
        let last = List.fold_left step first (Measure_paths.walk_eids plan i) in
        check cb "starts at a monitor" true (Graph.NodeSet.mem csr.ids.(first) monitors);
        check cb "ends at a monitor" true (Graph.NodeSet.mem csr.ids.(last) monitors);
        check cb "distinct endpoints" true (first <> last)
      done

let test_measure_equals_walk_sums () =
  match Measure_paths.plan fig1_net with
  | Error e -> Alcotest.fail e
  | Ok plan ->
      let truth =
        Measurement.random_weights ~lo:1 ~hi:100 (Prng.create 11) Fixtures.fig1
      in
      let w = float_weights Fixtures.fig1 truth in
      let values = Measure_paths.measure plan w in
      Array.iteri
        (fun i v ->
          let by_walk =
            List.fold_left
              (fun acc k -> acc +. w.(k))
              0.0
              (Measure_paths.walk_eids plan i)
          in
          (* Integer metrics: both sums are exact. *)
          check (Alcotest.float 0.0) "walk sum" by_walk v)
        values

(* --- Solve ----------------------------------------------------------- *)

let test_simulate_fig1_exact () =
  let truth =
    Measurement.random_weights ~lo:1 ~hi:100 (Prng.create 12) Fixtures.fig1
  in
  Invariant.with_enabled true (fun () ->
      match Measure_solve.simulate fig1_net truth with
      | Error e -> Alcotest.fail e
      | Ok sol ->
          check ci "measurements" 11 sol.Measure_solve.measurements;
          check cb "metrics exact" true (metrics_match_truth sol truth ~tol:0.0))

(* The ground truth is read in one in-order walk beside the link
   numbers: metrics of links the graph does not have (below, between
   and above its own) change nothing, and a missing first, middle or
   last link raises [Measurement.weight]'s error. *)
let test_simulate_truth_walk () =
  let g = Fixtures.fig1 in
  let truth =
    Measurement.random_weights ~lo:1 ~hi:100 (Prng.create 14) g
  in
  let simulate truth = Measure_solve.simulate fig1_net truth in
  let base =
    match simulate truth with Ok s -> s | Error e -> Alcotest.fail e
  in
  let fresh = Graph.fresh_node g in
  let padded =
    List.fold_left
      (fun acc e -> Graph.EdgeMap.add e (Nettomo_linalg.Rational.of_int 5) acc)
      truth
      [ Graph.edge (-2) (-1); Graph.edge 0 fresh; Graph.edge fresh (fresh + 1) ]
  in
  (match simulate padded with
  | Ok s -> check cb "extra links ignored" true (Measure_solve.solution_equal base s)
  | Error e -> Alcotest.fail e);
  let links = Graph.edges g in
  List.iter
    (fun e ->
      match simulate (Graph.EdgeMap.remove e truth) with
      | _ -> Alcotest.failf "missing %d-%d accepted" (fst e) (snd e)
      | exception Invalid_argument m ->
          check Alcotest.string "error" "Measurement.weight: link without a metric" m)
    [ List.hd links; List.nth links (List.length links / 2); List.nth links (List.length links - 1) ]

let test_solutions_deterministic () =
  let truth =
    Measurement.random_weights ~lo:1 ~hi:100 (Prng.create 13) Fixtures.fig1
  in
  match
    (Measure_solve.simulate fig1_net truth, Measure_solve.simulate fig1_net truth)
  with
  | Ok a, Ok b -> check cb "bit-identical" true (Measure_solve.solution_equal a b)
  | _ -> Alcotest.fail "simulate failed"

(* The ISSUE's differential: the fast float path agrees with the
   exact-ℚ solver on random identifiable (MMP-monitored) graphs. *)
let prop_differential_vs_exact_solver =
  QCheck2.Test.make
    ~name:"Measure.Solve agrees with the exact solver (MMP monitors)"
    ~count:300
    QCheck2.Gen.(triple (int_bound 1_000_000) (int_range 4 12) (int_range 0 12))
    (fun (seed, n, extra) ->
      let rng = Prng.create seed in
      let g = Fixtures.random_connected rng n extra in
      let monitors = Graph.NodeSet.elements (Mmp.place g) in
      let net = Net.create g ~monitors in
      let truth = Measurement.random_weights ~lo:1 ~hi:1000 rng g in
      match (Measure_solve.simulate net truth, Solver.recover ~rng net truth) with
      | Ok sol, Some exact ->
          List.for_all
            (fun (e, q) ->
              let k =
                (* links are in lexicographic = column order *)
                let space = Measurement.space g in
                Measurement.column space e
              in
              Float.abs
                (sol.Measure_solve.metrics.(k)
                -. Nettomo_linalg.Rational.to_float q)
              <= 1e-9 *. Float.max 1.0 (Nettomo_linalg.Rational.to_float q))
            exact
      | Ok sol, None ->
          (* The walk model recovers even when the simple-path model
             cannot; the answer must still match the ground truth. *)
          metrics_match_truth sol truth ~tol:1e-9
      | Error _, _ -> false)

(* Full-rank property: under NETTOMO_CHECK the constructed multiplicity
   matrix is verified exactly; any rank deficiency raises Violation. *)
let prop_constructed_matrix_full_rank =
  QCheck2.Test.make ~name:"constructed matrix is full rank (exact check)"
    ~count:100
    QCheck2.Gen.(triple (int_bound 1_000_000) (int_range 2 10) (int_range 0 10))
    (fun (seed, n, extra) ->
      let rng = Prng.create seed in
      let g = Fixtures.random_connected rng n extra in
      let nodes = Graph.node_array g in
      let k = min 2 (Array.length nodes) in
      let monitors = Array.to_list (Prng.sample rng k nodes) in
      let net = Net.create g ~monitors in
      let truth = Measurement.random_weights rng g in
      Invariant.with_enabled true (fun () ->
          match Measure_solve.simulate net truth with
          | Ok sol ->
              sol.Measure_solve.measurements = Graph.n_edges g
              && metrics_match_truth sol truth ~tol:1e-9
          | Error _ -> List.length monitors < 2))

(* The library's spanning-tree seeds as (first node, link columns),
   and the oracle's node-list seeds turned into the same form. *)
let seed_rows net =
  let csr = Csr.of_graph (Net.graph net) in
  let monitor = Array.map (Net.is_monitor net) csr.Csr.ids in
  let rows = ref [] in
  ignore
    (Measure_paths.simple_candidates csr ~monitor (fun src cols len ->
         rows := (csr.Csr.ids.(src), Array.to_list (Array.sub cols 0 len)) :: !rows));
  List.rev !rows

let oracle_rows net =
  let space = Measurement.space (Net.graph net) in
  List.map
    (fun p ->
      ( List.hd p,
        List.sort Int.compare
          (List.map (Measurement.column space) (Nettomo_graph.Paths.path_edges p)) ))
    (Oracles.simple_candidates net)

let row_equal (a, r) (b, q) = a = b && List.equal Int.equal r q

(* The library's seeds are the oracle's rows, in order, with some left
   out, and every row it leaves out lies in the exact rational span of
   the rows it emitted before that one from the same root. A root's
   rows are consecutive and start at the root, so the span starts over
   whenever the first node changes. *)
let seeds_follow_oracle net =
  let n = Graph.n_edges (Net.graph net) in
  let basis = ref (Nettomo_linalg.Basis.create n) and root = ref (-1) in
  let dense cols =
    let v = Array.make n Nettomo_linalg.Rational.zero in
    List.iter (fun j -> v.(j) <- Nettomo_linalg.Rational.one) cols;
    v
  in
  let rec go lib oracle =
    match (lib, oracle) with
    | _, [] -> lib = []
    | _, (src, _) :: _ when src <> !root ->
        root := src;
        basis := Nettomo_linalg.Basis.create n;
        go lib oracle
    | l :: ls, o :: os when row_equal l o ->
        ignore (Nettomo_linalg.Basis.add !basis (dense (snd o)));
        go ls os
    | _, o :: os -> Nettomo_linalg.Basis.mem !basis (dense (snd o)) && go lib os
  in
  go (seed_rows net) (oracle_rows net)

let test_simple_candidates_valid () =
  let cands = Oracles.simple_candidates fig1_net in
  check cb "produces candidates" true (cands <> []);
  List.iter
    (fun p ->
      check cb "candidate is a measurement path" true
        (Measurement.is_measurement_path fig1_net p))
    cands;
  check cb "rows are the candidates' columns, less spanned ones" true
    (seeds_follow_oracle fig1_net)

let prop_simple_candidates_valid =
  QCheck2.Test.make
    ~name:"simple candidates are valid measurement paths" ~count:100
    QCheck2.Gen.(triple (int_bound 1_000_000) (int_range 3 14) (int_range 0 14))
    (fun (seed, n, extra) ->
      let rng = Prng.create seed in
      let g = Fixtures.random_connected rng n extra in
      let nodes = Graph.node_array g in
      let k = min (Array.length nodes) (2 + Prng.int rng 3) in
      let monitors = Array.to_list (Prng.sample rng k nodes) in
      let net = Net.create g ~monitors in
      List.for_all
        (fun p -> Measurement.is_measurement_path net p)
        (Oracles.simple_candidates net)
      && seeds_follow_oracle net)

(* The fallback's seeds are generated as rows on the flat graph; they
   must be the oracle's node-list seeds, as columns, in the same order,
   starting at the same node, less rows the ones before them span.
   Random nets past the exact-enumeration range, and one with every
   second node a monitor, so roots past the eighth are skipped. *)
let prop_seed_rows_match_oracle =
  QCheck2.Test.make
    ~name:"link-number seeds = node-list seeds as rows (random nets > 12 nodes)"
    ~count:60
    QCheck2.Gen.(triple (int_bound 1_000_000) (int_range 13 40) (int_range 0 40))
    (fun (seed, n, extra) ->
      let rng = Prng.create seed in
      let g = Fixtures.random_connected rng n extra in
      let nodes = Graph.node_array g in
      let k = if seed mod 2 = 0 then 2 + Prng.int rng 6 else n / 2 in
      let net = Net.create g ~monitors:(Array.to_list (Prng.sample rng k nodes)) in
      seeds_follow_oracle net)

(* A detour takes its monitors from a per-subtree list of the smallest
   ones, which skips the most monitors when many nodes are monitors,
   and a root reaches only its own component. Random nets of 13–40
   nodes in one to three components on disjoint node ranges, with 2 up
   to half the nodes as monitors. *)
let prop_seed_rows_dense_monitors =
  QCheck2.Test.make
    ~name:"link-number seeds = node-list seeds (dense monitors, several components)"
    ~count:100
    QCheck2.Gen.(triple (int_bound 1_000_000) (int_range 13 40) (int_range 1 3))
    (fun (seed, n, parts) ->
      let rng = Prng.create seed in
      let step = n / parts in
      let edges =
        List.concat
          (List.init parts (fun i ->
               let size = if i = parts - 1 then n - (i * step) else step in
               List.map
                 (fun (u, v) -> ((i * step) + u, (i * step) + v))
                 (Graph.edges (Fixtures.random_connected rng size (Prng.int rng (2 * size))))))
      in
      let g = Graph.of_edges edges in
      let nodes = Graph.node_array g in
      let k = 2 + Prng.int rng ((Array.length nodes / 2) - 1) in
      let net = Net.create g ~monitors:(Array.to_list (Prng.sample rng k nodes)) in
      seeds_follow_oracle net)

(* The rows the library leaves out cannot change what the search
   answers: with the oracle's full list as seeds and with the library's,
   the same seed and stall budget give the same rank and the same
   membership of every link's unit vector. The stall budget is the
   coverage fallback's: the random layer runs up to 150 links. *)
let search_answers_match net =
  let oracle csr ~monitor:_ emit =
    List.iter
      (fun (src, cols) ->
        emit (Csr.index csr src) (Array.of_list cols) (List.length cols))
      (oracle_rows net);
    []
  in
  let m = Graph.n_edges (Net.graph net) in
  let max_stall = if m > 150 then 0 else 50 * (Graph.n_nodes (Net.graph net) + 1) in
  let csr, monitor = Fixtures.flat net in
  let search seeds = Solver.basis ~rng:(Prng.create 5) ~max_stall ~seeds csr ~monitor in
  let a = search oracle and b = search Measure_paths.simple_candidates in
  Nettomo_linalg.Zbasis.rank a = Nettomo_linalg.Zbasis.rank b
  && List.for_all
       (fun j -> Nettomo_linalg.Zbasis.mem_unit a j = Nettomo_linalg.Zbasis.mem_unit b j)
       (List.init m Fun.id)

let test_seed_rows_isp () =
  List.iter
    (fun (name, seed) ->
      List.iter
        (fun (what, frac) ->
          let net = Fixtures.isp_prefix name seed frac in
          let at check_what = Printf.sprintf "%s, %s of its MMP monitors: %s" name what check_what in
          check cb (at "rows") true (seeds_follow_oracle net);
          check cb (at "search answers") true (search_answers_match net))
        [ ("a quarter", fun m -> m / 4); ("three quarters", fun m -> 3 * m / 4) ])
    [ ("Ebone", 50); ("Exodus", 54); ("Tiscali", 56) ]

(* At most 20 links beyond a spanning tree: on nets of 16 nodes or
   fewer the search ends with exhaustive enumeration, up to 200,000
   paths per monitor pair, which takes seconds on dense ones. *)
let prop_search_answers_match =
  QCheck2.Test.make
    ~name:"search answers: oracle seeds = library seeds (random nets > 12 nodes)"
    ~count:40
    QCheck2.Gen.(triple (int_bound 1_000_000) (int_range 13 40) (int_range 0 20))
    (fun (seed, n, extra) ->
      let rng = Prng.create seed in
      let g = Fixtures.random_connected rng n extra in
      let nodes = Graph.node_array g in
      let k = 2 + Prng.int rng 8 in
      let net = Net.create g ~monitors:(Array.to_list (Prng.sample rng k nodes)) in
      search_answers_match net)

(* The coverage fallback's answers depend on the exact candidate list,
   order included, so it is pinned on two ISP maps under a quarter of
   their MMP placement: count and FNV-1a digest of the rendered list. *)
let test_simple_candidates_pinned () =
  let render cands =
    String.concat ";"
      (List.map (fun p -> String.concat "-" (List.map string_of_int p)) cands)
  in
  List.iter
    (fun (name, seed, count, digest) ->
      let cands = Oracles.simple_candidates (Fixtures.isp_prefix name seed (fun m -> m / 4)) in
      check ci (name ^ " candidate count") count (List.length cands);
      check Alcotest.string (name ^ " candidate digest") digest
        Nettomo_util.Checksum.(to_hex (fnv64 (render cands))))
    [
      ("Ebone", 50, 4888, "f3c0d83266867678");
      ("Exodus", 54, 7399, "406e07c0d64da10c");
    ]

(* The walk family's recovery on a 10^4-node map, pinned as the count
   and FNV-1a digest of its links and the bits of every recovered
   metric: flattening the graph differently must not move one bit. *)
let test_simulate_pinned () =
  let rng = Prng.create 10 in
  let g = Nettomo_topo.Gen.barabasi_albert rng ~n:10_000 ~nmin:2 in
  let net = Net.create g ~monitors:[ 0; 1 ] in
  let truth = Measurement.random_weights ~lo:1 ~hi:1000 rng g in
  match Measure_solve.simulate net truth with
  | Error e -> Alcotest.fail e
  | Ok sol ->
      let rendered =
        String.concat ";"
          (Array.to_list
             (Array.map2
                (fun (u, v) x ->
                  Printf.sprintf "%d-%d:%Lx" u v (Int64.bits_of_float x))
                sol.Measure_solve.links sol.Measure_solve.metrics))
      in
      check ci "links" 19995 (Array.length sol.Measure_solve.links);
      check Alcotest.string "links and metric bits" "423132b68a0a555f"
        Nettomo_util.Checksum.(to_hex (fnv64 rendered))

let suite =
  [
    Alcotest.test_case "Csr round-trip (fig1)" `Quick test_csr_roundtrip;
    Alcotest.test_case "plan counts |E| (fig1)" `Quick test_plan_counts_fig1;
    Alcotest.test_case "plan rejects bad inputs" `Quick test_plan_rejects;
    Alcotest.test_case "walks are monitor walks" `Quick test_walks_are_walks;
    Alcotest.test_case "measure = walk sums" `Quick test_measure_equals_walk_sums;
    Alcotest.test_case "simulate exact on fig1" `Quick test_simulate_fig1_exact;
    Alcotest.test_case "solutions deterministic" `Quick
      test_solutions_deterministic;
    Alcotest.test_case "simulate walks the truth in link order" `Quick
      test_simulate_truth_walk;
    Alcotest.test_case "simple candidates (fig1)" `Quick
      test_simple_candidates_valid;
    QCheck_alcotest.to_alcotest prop_csr_invariant;
    QCheck_alcotest.to_alcotest prop_differential_vs_exact_solver;
    QCheck_alcotest.to_alcotest prop_constructed_matrix_full_rank;
    QCheck_alcotest.to_alcotest prop_simple_candidates_valid;
    QCheck_alcotest.to_alcotest prop_seed_rows_match_oracle;
    QCheck_alcotest.to_alcotest prop_seed_rows_dense_monitors;
    Alcotest.test_case "link-number seeds = node-list seeds (ISP prefixes)" `Quick
      test_seed_rows_isp;
    QCheck_alcotest.to_alcotest prop_search_answers_match;
    Alcotest.test_case "simple candidates pinned (ISP prefixes)" `Quick
      test_simple_candidates_pinned;
    Alcotest.test_case "simulate pinned (BA10k)" `Quick test_simulate_pinned;
  ]
