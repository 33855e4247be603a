open Nettomo_graph

let check = Alcotest.check
let ci = Alcotest.int
let cb = Alcotest.bool
let ns = Graph.NodeSet.of_list

let graph_of_component (c : Triconnected.component) =
  Graph.EdgeSet.fold
    (fun (u, v) acc -> Graph.add_edge acc u v)
    c.edges
    (Graph.NodeSet.fold (fun v acc -> Graph.add_node acc v) c.nodes Graph.empty)

(* Every emitted component must be "final": 3-vertex-connected, a polygon
   (cycle), or a triangle/small complete graph. *)
let component_is_final (c : Triconnected.component) =
  let g = graph_of_component c in
  let n = Graph.n_nodes g in
  n <= 3
  || Separation.is_three_vertex_connected g
  || Graph.fold_nodes (fun v acc -> acc && Graph.degree g v = 2) g true

let test_k4_single () =
  let comps, pairs = Triconnected.split_biconnected Fixtures.k4 in
  check ci "no separation pairs" 0 (List.length pairs);
  check ci "one component" 1 (List.length comps);
  let c = List.hd comps in
  check cb "no virtual links" true (Graph.EdgeSet.is_empty c.virtuals)

let test_cycle_polygon () =
  let comps = fst (Triconnected.split_biconnected (Fixtures.cycle_graph 8)) in
  check ci "cycle stays whole" 1 (List.length comps);
  let c = List.hd comps in
  check ci "all nodes" 8 (Graph.NodeSet.cardinal c.nodes);
  check cb "no virtuals" true (Graph.EdgeSet.is_empty c.virtuals)

let test_two_k4_split () =
  let comps, pairs = Triconnected.split_biconnected Fixtures.two_k4_by_pair in
  check
    (Alcotest.list Fixtures.edge_testable)
    "the shared pair" [ (2, 3) ] pairs;
  check ci "two components" 2 (List.length comps);
  List.iter
    (fun (c : Triconnected.component) ->
      check ci "each is a K4" 4 (Graph.NodeSet.cardinal c.nodes);
      (* {2,3} is adjacent in the original graph, so no virtual link. *)
      check cb "no virtual link" true (Graph.EdgeSet.is_empty c.virtuals);
      check cb "contains the shared pair" true
        (Graph.NodeSet.subset (ns [ 2; 3 ]) c.nodes))
    comps

let test_nonadjacent_pair_virtual () =
  (* Two squares glued on the non-adjacent pair {0, 2}:
     square 0-1-2-3 and square 0-4-2-5. The pair {0,2} splits the graph
     and is non-adjacent, so a virtual link 0-2 must be minted, and the
     parts become polygons (triangles via the virtual edge). *)
  let g = Graph.of_edges [ (0, 1); (1, 2); (2, 3); (3, 0); (0, 4); (4, 2); (2, 5); (5, 0) ] in
  let comps = fst (Triconnected.split_biconnected g) in
  check cb "at least two components" true (List.length comps >= 2);
  check cb "some virtual link exists" true
    (List.exists
       (fun (c : Triconnected.component) ->
         Graph.EdgeSet.mem (0, 2) c.virtuals)
       comps);
  List.iter
    (fun c -> check cb "component final" true (component_is_final c))
    comps

let test_wheel_single () =
  let comps = fst (Triconnected.split_biconnected Fixtures.wheel5) in
  check ci "3-connected wheel stays whole" 1 (List.length comps)

let test_decompose_full () =
  (* Bowtie: two triangle blocks, cut vertex 2, no separation pairs. *)
  let t = Triconnected.decompose Fixtures.bowtie in
  check Fixtures.nodeset_testable "cut vertices" (ns [ 2 ]) t.cut_vertices;
  check ci "no separation pairs" 0 (List.length t.separation_pairs);
  check Fixtures.nodeset_testable "separation vertices = cuts" (ns [ 2 ])
    t.separation_vertices;
  let tricomps = List.concat_map snd t.blocks in
  check ci "two triangles" 2 (List.length tricomps)

let test_decompose_mixed () =
  (* Pendant edge on two_k4_by_pair: adds a K2 block and a cut vertex. *)
  let g = Graph.add_edge Fixtures.two_k4_by_pair 0 99 in
  let t = Triconnected.decompose g in
  check Fixtures.nodeset_testable "cut vertex 0" (ns [ 0 ]) t.cut_vertices;
  check
    (Alcotest.list Fixtures.edge_testable)
    "separation pair {2,3}"
    [ (2, 3) ]
    t.separation_pairs;
  check Fixtures.nodeset_testable "separation vertices" (ns [ 0; 2; 3 ])
    t.separation_vertices;
  (* One block of <3 nodes (the pendant edge) with no tricomps. *)
  check cb "pendant block has no tricomps" true
    (List.exists
       (fun ((b : Biconnected.component), tc) ->
         Graph.NodeSet.cardinal b.nodes = 2 && tc = [])
       t.blocks)

let test_invalid_inputs () =
  (* A cut vertex (bowtie, 3-node path) or a second component (two
     triangles, each biconnected alone). *)
  List.iter
    (fun (what, g) ->
      check cb ("rejects non-biconnected: " ^ what) true
        (try
           ignore (Triconnected.split_biconnected g);
           false
         with Invalid_argument _ -> true))
    [
      ("bowtie", Fixtures.bowtie);
      ("disconnected", Graph.of_edges [ (0, 1); (1, 2); (0, 2); (3, 4); (4, 5); (3, 5) ]);
      ("3-node path", Fixtures.path_graph 3);
    ];
  check cb "rejects tiny graphs" true
    (try
       ignore (Triconnected.split_biconnected (Graph.of_edges [ (0, 1) ]));
       false
     with Invalid_argument _ -> true)

(* Properties over random biconnected graphs. We obtain biconnected
   inputs by taking the largest block of a random connected graph. *)
let largest_block g =
  let r = Biconnected.decompose g in
  let best =
    List.fold_left
      (fun acc (c : Biconnected.component) ->
        match acc with
        | None -> Some c
        | Some b ->
            if Graph.NodeSet.cardinal c.nodes > Graph.NodeSet.cardinal b.nodes
            then Some c
            else acc)
      None r.components
  in
  match best with
  | Some b when Graph.NodeSet.cardinal b.nodes >= 3 ->
      Some (Graph.induced g b.nodes)
  | _ -> None

let prop_components_final =
  QCheck2.Test.make ~name:"tricomponents are 3-connected, polygons or triangles"
    ~count:250
    QCheck2.Gen.(triple (int_bound 100_000) (int_range 4 20) (int_range 2 25))
    (fun (seed, n, extra) ->
      let rng = Nettomo_util.Prng.create seed in
      let g = Fixtures.random_connected rng n extra in
      match largest_block g with
      | None -> true
      | Some b ->
          List.for_all component_is_final (fst (Triconnected.split_biconnected b)))

let prop_real_edges_covered =
  QCheck2.Test.make
    ~name:"non-virtual component edges cover the block edge set" ~count:250
    QCheck2.Gen.(triple (int_bound 100_000) (int_range 4 20) (int_range 2 25))
    (fun (seed, n, extra) ->
      let rng = Nettomo_util.Prng.create seed in
      let g = Fixtures.random_connected rng n extra in
      match largest_block g with
      | None -> true
      | Some b ->
          let comps = fst (Triconnected.split_biconnected b) in
          let real =
            List.fold_left
              (fun acc (c : Triconnected.component) ->
                Graph.EdgeSet.union acc (Graph.EdgeSet.diff c.edges c.virtuals))
              Graph.EdgeSet.empty comps
          in
          Graph.EdgeSet.equal real (Graph.edge_set b))

let prop_component_nodes_cover =
  QCheck2.Test.make ~name:"component nodes cover the block" ~count:250
    QCheck2.Gen.(triple (int_bound 100_000) (int_range 4 20) (int_range 2 25))
    (fun (seed, n, extra) ->
      let rng = Nettomo_util.Prng.create seed in
      let g = Fixtures.random_connected rng n extra in
      match largest_block g with
      | None -> true
      | Some b ->
          let comps = fst (Triconnected.split_biconnected b) in
          let nodes =
            List.fold_left
              (fun acc (c : Triconnected.component) ->
                Graph.NodeSet.union acc c.nodes)
              Graph.NodeSet.empty comps
          in
          Graph.NodeSet.equal nodes (Graph.node_set b))

let prop_virtual_endpoints_are_pair_members =
  QCheck2.Test.make
    ~name:"virtual link endpoints are separation-pair members" ~count:200
    QCheck2.Gen.(triple (int_bound 100_000) (int_range 4 18) (int_range 2 20))
    (fun (seed, n, extra) ->
      let rng = Nettomo_util.Prng.create seed in
      let g = Fixtures.random_connected rng n extra in
      match largest_block g with
      | None -> true
      | Some b ->
          let t = Triconnected.decompose b in
          let members =
            List.fold_left
              (fun acc (a, c) -> Graph.NodeSet.add a (Graph.NodeSet.add c acc))
              Graph.NodeSet.empty t.separation_pairs
          in
          List.concat_map snd t.blocks
          |> List.for_all (fun (c : Triconnected.component) ->
                 Graph.EdgeSet.for_all
                   (fun (u, v) ->
                     Graph.NodeSet.mem u members && Graph.NodeSet.mem v members)
                   c.virtuals))

(* The graph layer's answers on four realistic maps
   ([Fixtures.pinned_maps]), pinned as counts and FNV-1a digests of
   their rendering, block and component order included: a change of
   adjacency representation must leave every decomposition, separation
   pair and bridge exactly where it was. *)
let render_pins (t : Triconnected.t) bridges =
  let nodes s = String.concat "," (List.map string_of_int (Graph.NodeSet.elements s)) in
  let edges l = String.concat "," (List.map (Format.asprintf "%a" Graph.pp_edge) l) in
  let edge_set s = edges (Graph.EdgeSet.elements s) in
  let component (c : Triconnected.component) =
    Printf.sprintf "C[%s|%s|%s]" (nodes c.nodes) (edge_set c.edges)
      (edge_set c.virtuals)
  in
  let block ((b : Biconnected.component), comps) =
    Printf.sprintf "B[%s|%s]{%s}" (nodes b.nodes) (edge_set b.edges)
      (String.concat ";" (List.map component comps))
  in
  String.concat "\n"
    [
      String.concat "\n" (List.map block t.blocks);
      "cut " ^ nodes t.cut_vertices;
      "sep " ^ edges t.separation_pairs;
      "sv " ^ nodes t.separation_vertices;
      "bridges " ^ edge_set bridges;
    ]

let test_pinned_decompositions () =
  let pin (name, g) =
    let t = Triconnected.decompose g and bridges = Bridges.bridges g in
    ( name,
      Printf.sprintf "%d blocks, %d components, %d pairs, %d bridges"
        (List.length t.blocks)
        (List.length (List.concat_map snd t.blocks))
        (List.length t.separation_pairs)
        (Graph.EdgeSet.cardinal bridges),
      Nettomo_util.Checksum.(to_hex (fnv64 (render_pins t bridges))) )
  in
  check
    Alcotest.(list (triple string string string))
    "counts and digests"
    [
      ( "Ebone",
        "35 blocks, 35 components, 33 pairs, 34 bridges",
        "09e67fdfb7833f9c" );
      ( "Exodus",
        "67 blocks, 28 components, 27 pairs, 66 bridges",
        "0d184c1b9e28badd" );
      ( "Tiscali",
        "103 blocks, 51 components, 49 pairs, 102 bridges",
        "2b8a7f130f575c81" );
      ("ER150", "2 blocks, 7 components, 6 pairs, 1 bridges", "cfc2de84e25008d4");
    ]
    (List.map pin (Fixtures.pinned_maps ()))

(* A chain of K4, triangle, bridge, K4 and square. Its blocks of 4, 3,
   2, 4 and 4 nodes tell the split's threshold (3 nodes) from the
   separation pairs' (4), which no pinned map can: each has a single
   block of 3 nodes or more. The square's two pairs cut nothing (a
   polygon stays whole), where every pair of the pinned maps' blocks
   cuts. *)
let chain =
  Graph.of_edges
    [
      (0, 1); (0, 2); (0, 3); (1, 2); (1, 3); (2, 3);
      (3, 4); (3, 5); (4, 5); (5, 6);
      (6, 7); (6, 8); (6, 9); (7, 8); (7, 9); (8, 9);
      (9, 10); (10, 11); (11, 12); (12, 9);
    ]

(* [assemble]'s calling contract, which the engine's block counters
   rely on: one [split] per block of 3 nodes or more, in block order.
   Given the from-scratch split it builds exactly [decompose]'s
   answer. *)
let test_assemble_contract () =
  List.iter
    (fun (name, g) ->
      let bc = Biconnected.decompose g in
      let index_of block =
        let rec go i = function
          | [] -> -1
          | b :: rest -> if b == block then i else go (i + 1) rest
        in
        go 0 bc.components
      in
      let calls = ref [] in
      let t =
        Triconnected.assemble bc ~split:(fun (block : Biconnected.component) ->
            calls := index_of block :: !calls;
            Triconnected.split_biconnected (Graph.induced g block.nodes))
      in
      check
        Alcotest.(list int)
        (name ^ ": one split per block of 3 nodes or more, in block order")
        (List.filter
           (fun (b : Biconnected.component) -> Graph.NodeSet.cardinal b.nodes >= 3)
           bc.components
        |> List.map index_of)
        (List.rev !calls);
      check Alcotest.string (name ^ ": equals decompose")
        (render_pins (Triconnected.decompose g) Graph.EdgeSet.empty)
        (render_pins t Graph.EdgeSet.empty))
    (("chain", chain) :: Fixtures.pinned_maps ())

(* The decomposition's separation pairs without the split: one
   [Separation.cut_pairs] sweep of each block of 4 nodes or more,
   concatenated in block order. [decompose] reads its pairs off the
   split, so a split that handed over only the pairs it cut, or none,
   would still agree with [assemble]; it disagrees with this. *)
let swept_pairs g =
  List.concat_map
    (fun (b : Biconnected.component) ->
      if Graph.NodeSet.cardinal b.nodes < 4 then []
      else Separation.cut_pairs (Graph.induced g b.nodes))
    (Biconnected.decompose g).components

let test_pairs_match_sweep () =
  List.iter
    (fun (name, g) ->
      check
        (Alcotest.list Fixtures.edge_testable)
        (name ^ ": one sweep per block")
        (swept_pairs g) (Triconnected.decompose g).separation_pairs)
    (("chain", chain) :: Fixtures.pinned_maps ())

(* The split lists each block's separation pairs once and cuts every
   part along the first listed pair that still separates it, where the
   recursive reference sweeps every part afresh. Both must give the
   same components in the same order; inputs are rich in separation
   pairs: cycles with chords, and pieces glued along pairs of nodes. *)
let same_components a b =
  List.equal
    (fun (x : Triconnected.component) (y : Triconnected.component) ->
      Graph.NodeSet.equal x.nodes y.nodes
      && Graph.EdgeSet.equal x.edges y.edges
      && Graph.EdgeSet.equal x.virtuals y.virtuals)
    a b

let prop_split_matches_reference =
  QCheck2.Test.make ~name:"split = recursive reference" ~count:1200
    QCheck2.Gen.(triple (int_bound 1_000_000) (int_range 0 3) (int_range 4 24))
    (fun (seed, shape, size) ->
      let rng = Nettomo_util.Prng.create seed in
      let g =
        if shape = 0 then
          Fixtures.cycle_with_chords rng ~first:0 size
            (Nettomo_util.Prng.int rng (size / 2 + 1))
        else Fixtures.glued_pieces rng (2 + (size mod 5))
      in
      (* Every other input on shuffled sparse ids. *)
      let g =
        if seed mod 2 = 0 then g
        else
          let ids = Fixtures.sparse_ids rng (Graph.fresh_node g) in
          Graph.fold_edges
            (fun (u, v) acc -> Graph.add_edge acc ids.(u) ids.(v))
            g Graph.empty
      in
      Biconnected.is_biconnected g
      && Option.equal Graph.edge_equal
           (Oracles.Split_ref.first_cut_pair g)
           (List.nth_opt (Separation.cut_pairs g) 0)
      && same_components
           (fst (Triconnected.split_biconnected g))
           (Oracles.Split_ref.split_biconnected g))

(* Two glued-piece graphs joined by a bridge: two blocks rich in
   separation pairs, polygons among their parts, around a 2-node
   block. *)
let prop_pairs_match_sweep =
  QCheck2.Test.make ~name:"separation pairs = one sweep per block (glued pieces)"
    ~count:300
    QCheck2.Gen.(triple (int_bound 1_000_000) (int_range 2 6) (int_range 1 6))
    (fun (seed, left, right) ->
      let rng = Nettomo_util.Prng.create seed in
      let g = Fixtures.glued_pieces rng left in
      let shift = Graph.fresh_node g in
      let g =
        Graph.fold_edges
          (fun (u, v) acc -> Graph.add_edge acc (shift + u) (shift + v))
          (Fixtures.glued_pieces rng right) (Graph.add_edge g 0 shift)
      in
      List.equal Graph.edge_equal (swept_pairs g)
        (Triconnected.decompose g).separation_pairs)

let test_split_matches_reference_pinned () =
  List.iter
    (fun (name, g) ->
      List.iter
        (fun (b : Biconnected.component) ->
          if Graph.NodeSet.cardinal b.nodes >= 3 then
            let block = Graph.induced g b.nodes in
            check cb
              (Printf.sprintf "%s: block of %d nodes" name
                 (Graph.NodeSet.cardinal b.nodes))
              true
              (same_components
                 (fst (Triconnected.split_biconnected block))
                 (Oracles.Split_ref.split_biconnected block)))
        (Biconnected.decompose g).components)
    (Fixtures.pinned_maps ())

(* The reference's sweep, moved here from the separation tests: it
   stops at the lexicographically smallest pair, the first one
   [Separation.cut_pairs] lists. *)
let test_first_cut_pair () =
  let first = Oracles.Split_ref.first_cut_pair in
  let pair = Alcotest.option Fixtures.edge_testable in
  check pair "square" (Some (0, 2)) (first Fixtures.square);
  check pair "two K4s" (Some (2, 3)) (first Fixtures.two_k4_by_pair);
  check pair "k4 has none" None (first Fixtures.k4);
  check pair "petersen has none" None (first Fixtures.petersen)

let suite =
  [
    Alcotest.test_case "K4 stays whole" `Quick test_k4_single;
    Alcotest.test_case "cycle reported as polygon" `Quick test_cycle_polygon;
    Alcotest.test_case "two K4s split at shared pair" `Quick test_two_k4_split;
    Alcotest.test_case "virtual link for non-adjacent pair" `Quick
      test_nonadjacent_pair_virtual;
    Alcotest.test_case "3-connected wheel stays whole" `Quick test_wheel_single;
    Alcotest.test_case "full decomposition (bowtie)" `Quick test_decompose_full;
    Alcotest.test_case "full decomposition (mixed)" `Quick test_decompose_mixed;
    Alcotest.test_case "invalid inputs rejected" `Quick test_invalid_inputs;
    QCheck_alcotest.to_alcotest prop_components_final;
    QCheck_alcotest.to_alcotest prop_real_edges_covered;
    QCheck_alcotest.to_alcotest prop_component_nodes_cover;
    QCheck_alcotest.to_alcotest prop_virtual_endpoints_are_pair_members;
    Alcotest.test_case "decompositions pinned (4 maps)" `Quick
      test_pinned_decompositions;
    Alcotest.test_case "assemble calls each block's pieces in order" `Quick
      test_assemble_contract;
    Alcotest.test_case "separation pairs = one sweep per block (chain, pinned maps)"
      `Quick test_pairs_match_sweep;
    QCheck_alcotest.to_alcotest prop_pairs_match_sweep;
    QCheck_alcotest.to_alcotest prop_split_matches_reference;
    Alcotest.test_case "split = recursive reference (pinned maps)" `Quick
      test_split_matches_reference_pinned;
    Alcotest.test_case "first_cut_pair (reference)" `Quick test_first_cut_pair;
  ]
