(* Shared graph fixtures for the test suites. *)

open Nettomo_graph

(* Fig. 1 of the paper: 7 nodes, 11 links, monitors m1, m2, m3.
   Node ids: m1 = 0, m2 = 1, m3 = 2, interior a = 3, b = 4, c = 5, x = 6.
   Links (paper label → pair):
     l1 = m1-b, l2 = m1-a, l3 = a-b, l4 = b-c, l5 = a-c, l6 = a-m3,
     l7 = c-m3, l8 = c-x, l9 = m3-m2, l10 = x-m3, l11 = x-m2. *)
let fig1_m1 = 0
let fig1_m2 = 1
let fig1_m3 = 2

let fig1 =
  Graph.of_edges
    [
      (0, 4); (0, 3); (3, 4); (4, 5); (3, 5); (3, 2);
      (5, 2); (5, 6); (2, 1); (6, 2); (6, 1);
    ]

(* Fig. 6 of the paper: monitors m1 = 0, m2 = 6, interior v1 … v5 = 1 … 5.
   All interior links are identifiable with two monitors. *)
let fig6_m1 = 0
let fig6_m2 = 6

let fig6 =
  Graph.of_edges
    [
      (0, 1); (0, 4);           (* exterior at m1 *)
      (1, 2); (2, 3); (1, 3);   (* triangle v1 v2 v3 *)
      (3, 4); (2, 5); (4, 5);   (* rest of interior *)
      (2, 6); (5, 6);           (* exterior at m2 *)
    ]

(* Small named graphs. *)
let triangle = Graph.of_edges [ (0, 1); (1, 2); (0, 2) ]

let square = Graph.of_edges [ (0, 1); (1, 2); (2, 3); (3, 0) ]

let k4 = Graph.of_edges [ (0, 1); (0, 2); (0, 3); (1, 2); (1, 3); (2, 3) ]

let k5 =
  Graph.of_edges
    [ (0, 1); (0, 2); (0, 3); (0, 4); (1, 2); (1, 3); (1, 4); (2, 3); (2, 4); (3, 4) ]

let path_graph n =
  Graph.of_edges (List.init (n - 1) (fun i -> (i, i + 1)))

let cycle_graph n =
  Graph.of_edges ((n - 1, 0) :: List.init (n - 1) (fun i -> (i, i + 1)))

let star n = Graph.of_edges (List.init n (fun i -> (0, i + 1)))

(* Two triangles joined at node 2 (a cut vertex). *)
let bowtie = Graph.of_edges [ (0, 1); (1, 2); (0, 2); (2, 3); (3, 4); (2, 4) ]

(* Two K4s sharing the (non-adjacent) separation pair {3, 4}:
   K4 on {0,1,2,3,4}? No: nodes 0..3 complete minus nothing, plus 4..7. *)
let two_k4_by_pair =
  (* K4 on {0,1,2,3} and K4 on {2,3,4,5}, sharing pair {2,3} (adjacent). *)
  Graph.of_edges
    [
      (0, 1); (0, 2); (0, 3); (1, 2); (1, 3); (2, 3);
      (2, 4); (2, 5); (3, 4); (3, 5); (4, 5);
    ]

(* Wheel W5: hub 0 joined to cycle 1-2-3-4-5. 3-vertex-connected. *)
let wheel5 =
  Graph.of_edges
    [ (0, 1); (0, 2); (0, 3); (0, 4); (0, 5);
      (1, 2); (2, 3); (3, 4); (4, 5); (5, 1) ]

(* Petersen graph: 3-vertex-connected, 3-regular, girth 5. *)
let petersen =
  Graph.of_edges
    [
      (0, 1); (1, 2); (2, 3); (3, 4); (4, 0);       (* outer 5-cycle *)
      (5, 7); (7, 9); (9, 6); (6, 8); (8, 5);       (* inner 5-star *)
      (0, 5); (1, 6); (2, 7); (3, 8); (4, 9);       (* spokes *)
    ]

(* Random connected graph for property tests: a random spanning tree plus
   [extra] random extra links. *)
let random_connected rng n extra =
  let open Nettomo_util in
  let g = ref Graph.empty in
  for v = 0 to n - 1 do
    g := Graph.add_node !g v
  done;
  for v = 1 to n - 1 do
    let u = Prng.int rng v in
    g := Graph.add_edge !g u v
  done;
  let added = ref 0 in
  let attempts = ref 0 in
  while !added < extra && !attempts < 50 * (extra + 1) do
    incr attempts;
    let u = Prng.int rng n and v = Prng.int rng n in
    if u <> v && not (Graph.mem_edge !g u v) then begin
      g := Graph.add_edge !g u v;
      incr added
    end
  done;
  !g

(* A random graph on nodes 0 … n-1 that need not be connected: up to
   three pieces over consecutive node ranges, each a random tree, with
   up to [extra] chords inside the pieces; a piece of one node is an
   isolated node, and about a third of the graphs end in one. *)
let random_graph rng n extra =
  let open Nettomo_util in
  let starts = Array.make n false in
  for _ = 1 to Prng.int rng 3 do
    if n > 1 then starts.(1 + Prng.int rng (n - 1)) <- true
  done;
  if n > 1 && Prng.int rng 3 = 0 then starts.(n - 1) <- true;
  let first = Array.make n 0 in
  let g = ref Graph.empty in
  for v = 0 to n - 1 do
    g := Graph.add_node !g v;
    if v > 0 && not starts.(v) then begin
      first.(v) <- first.(v - 1);
      g := Graph.add_edge !g (first.(v) + Prng.int rng (v - first.(v))) v
    end
    else first.(v) <- v
  done;
  for _ = 1 to extra do
    if n > 0 then begin
      let v = Prng.int rng n in
      let u = first.(v) + Prng.int rng (v - first.(v) + 1) in
      if u <> v then g := Graph.add_edge !g u v
    end
  done;
  !g

(* [n] distinct identifiers in random order, always including [min_int]
   and [max_int], the rest drawn from a dense band around zero or from
   the whole int range. *)
let sparse_ids rng n =
  let module Prng = Nettomo_util.Prng in
  let seen = ref (Graph.NodeSet.of_list [ min_int; max_int ]) in
  while Graph.NodeSet.cardinal !seen < n do
    let v =
      if Prng.bool rng then Prng.int_in rng (-50) 50
      else Int64.to_int (Prng.bits64 rng)
    in
    seen := Graph.NodeSet.add v !seen
  done;
  let ids = Array.of_list (Graph.NodeSet.elements !seen) in
  Prng.shuffle rng ids;
  ids

let graph_testable =
  Alcotest.testable Graph.pp Graph.equal

let edge_testable =
  Alcotest.testable Graph.pp_edge Graph.edge_equal

let nodeset_testable =
  Alcotest.testable
    (fun ppf s ->
      Format.fprintf ppf "{%a}"
        (Format.pp_print_list ~pp_sep:Format.pp_print_space Format.pp_print_int)
        (Graph.NodeSet.elements s))
    Graph.NodeSet.equal

let edgeset_testable =
  Alcotest.testable
    (fun ppf s ->
      Format.fprintf ppf "{%a}"
        (Format.pp_print_list ~pp_sep:Format.pp_print_space Graph.pp_edge)
        (Graph.EdgeSet.elements s))
    Graph.EdgeSet.equal

(* A fresh directory path under the temp dir, emptied before [f] runs
   and removed with its files afterwards, so reruns cannot see stale
   state. *)
let with_temp_dir name f =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "nettomo-test-%s-%d" name (Unix.getpid ()))
  in
  let rm_rf () =
    if Sys.file_exists dir then begin
      Array.iter
        (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
        (Sys.readdir dir);
      try Unix.rmdir dir with Unix.Unix_error _ -> ()
    end
  in
  rm_rf ();
  Fun.protect ~finally:rm_rf (fun () -> f dir)

(* An ISP map from the bundled generator, monitored by the first
   [frac m] of its [m] MMP monitors (smallest identifiers first). *)
let isp_prefix name seed frac =
  let spec = Option.get (Nettomo_topo.Isp.find name) in
  let g = Nettomo_topo.Isp.generate (Nettomo_util.Prng.create seed) spec in
  let mmp = Graph.NodeSet.elements (Nettomo_core.Mmp.place g) in
  let k = frac (List.length mmp) in
  Nettomo_core.Net.create g ~monitors:(List.filteri (fun i _ -> i < k) mmp)

(* A cycle on [first … first + n - 1] with [chords] random chords. *)
let cycle_with_chords rng ~first n chords =
  let module Prng = Nettomo_util.Prng in
  let g = ref (Graph.add_edge Graph.empty first (first + n - 1)) in
  for i = 0 to n - 2 do
    g := Graph.add_edge !g (first + i) (first + i + 1)
  done;
  for _ = 1 to chords do
    let u = Prng.int rng n and v = Prng.int rng n in
    if u <> v then g := Graph.add_edge !g (first + u) (first + v)
  done;
  !g

(* Pieces (cycles with chords, one in four a K4) glued one by one onto
   two distinct nodes of the graph so far: each glue keeps the graph
   biconnected and makes those two nodes a separation pair. *)
let glued_pieces rng pieces =
  let module Prng = Nettomo_util.Prng in
  let piece first =
    if Prng.int rng 4 = 0 then cycle_with_chords rng ~first 4 6
    else
      let n = Prng.int_in rng 3 8 in
      cycle_with_chords rng ~first n (Prng.int rng n)
  in
  (* Two distinct positions in an array of [n] ≥ 2. *)
  let two n =
    let i = Prng.int rng n in
    (i, (i + 1 + Prng.int rng (n - 1)) mod n)
  in
  let g = ref (piece 0) in
  for _ = 2 to pieces do
    let nodes = Graph.node_array !g in
    let x, y = two (Array.length nodes) in
    let p = piece (Graph.fresh_node !g) in
    let ends = Graph.node_array p in
    let i, j = two (Array.length ends) in
    let glue v =
      if v = ends.(i) then nodes.(x) else if v = ends.(j) then nodes.(y) else v
    in
    g :=
      Graph.fold_edges
        (fun (u, v) acc -> Graph.add_edge acc (glue u) (glue v))
        p !g
  done;
  !g

(* Four realistic maps: three ISP maps and a connected ER(150, 0.039)
   draw. test_triconnected pins their decompositions. *)
let pinned_maps () =
  let isp name seed =
    let spec = Option.get (Nettomo_topo.Isp.find name) in
    (name, Nettomo_topo.Isp.generate (Nettomo_util.Prng.create seed) spec)
  in
  let er150 =
    let rng = Nettomo_util.Prng.create 7 in
    Nettomo_topo.Gen.until_connected (fun () ->
        Nettomo_topo.Gen.erdos_renyi rng ~n:150 ~p:0.039)
  in
  [ isp "Ebone" 1; isp "Exodus" 2; isp "Tiscali" 3; ("ER150", er150) ]

(* The ISP maps the benchmark suite's workloads run on (bench/suite's
   inputs: the same specs and generator seeds). *)
let suite_maps () =
  List.map
    (fun (name, seed) ->
      let spec = Option.get (Nettomo_topo.Isp.find name) in
      (name, Nettomo_topo.Isp.generate (Nettomo_util.Prng.create seed) spec))
    [ ("Ebone", 50); ("Exodus", 54); ("Tiscali", 56) ]

(* [g] with its nodes renamed through [ids]: node [v] becomes
   [ids.(v)]. *)
let relabel ids g =
  Graph.fold_edges
    (fun (u, v) acc -> Graph.add_edge acc ids.(u) ids.(v))
    g
    (Graph.fold_nodes (fun v acc -> Graph.add_node acc ids.(v)) g Graph.empty)

(* A random graph of [n] nodes (isolated ones and several components
   allowed) on shuffled sparse identifiers. *)
let random_sparse_graph rng n extra =
  let g = random_graph rng n extra in
  relabel (sparse_ids rng (Graph.fresh_node g)) g

(* [g]'s flat graph, its block-cut search, and each block with a link
   as [Biconnected.decompose] lists it (isolated nodes left out), paired
   with its flat block number. *)
let flat_blocks g =
  let c = Csr.of_graph g in
  let flat = Biconnected.decompose_flat c in
  let blocks =
    List.filter
      (fun (b : Biconnected.component) -> not (Graph.EdgeSet.is_empty b.edges))
      (Biconnected.decompose g).components
  in
  (c, flat, List.mapi (fun i b -> (b, flat.Biconnected.n_blocks - 1 - i)) blocks)

(* A network's flat graph and its monitor flags by index: the input of
   [Solver.basis]. *)
let flat net =
  let csr = Csr.of_graph (Nettomo_core.Net.graph net) in
  (csr, Array.map (Nettomo_core.Net.is_monitor net) csr.Csr.ids)

(* [Solver.basis] on a network, through its flat form. *)
let solver_basis ?rng ?max_stall ?seeds net =
  let csr, monitor = flat net in
  Nettomo_core.Solver.basis ?rng ?max_stall ?seeds csr ~monitor

(* Field-by-field equality of two flat graphs. *)
let same_csr (a : Csr.t) (b : Csr.t) =
  let same x y = Array.length x = Array.length y && Array.for_all2 Int.equal x y in
  a.n = b.n && a.m = b.m && same a.ids b.ids && same a.xadj b.xadj && same a.adj b.adj
  && same a.eid b.eid && same a.ends b.ends

(* A wheel: hub 0 and rim 1 … [n], each spoke kept with probability
   3/4. *)
let wheel_missing_spokes rng n =
  let g = ref (cycle_with_chords rng ~first:1 n 0) in
  for i = 1 to n do
    if Nettomo_util.Prng.int rng 4 < 3 then g := Graph.add_edge !g 0 i
  done;
  !g

(* A random connected graph monitored by its MMP placement. *)
let mmp_net rng n extra =
  let g = random_connected rng n extra in
  Nettomo_core.Net.create g ~monitors:(Graph.NodeSet.elements (Nettomo_core.Mmp.place g))
