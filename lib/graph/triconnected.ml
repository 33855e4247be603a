module Errors = Nettomo_util.Errors
module NS = Graph.NodeSet
module ES = Graph.EdgeSet

type component = { nodes : NS.t; edges : ES.t; virtuals : ES.t }

let component_of ~virtuals g =
  {
    nodes = Graph.node_set g;
    edges = Graph.edge_set g;
    virtuals = ES.inter virtuals (Graph.edge_set g);
  }

(* A connected graph in which every node has degree 2 is a cycle: report
   it whole, as the polygon components of the classical decomposition. *)
let is_polygon g =
  Graph.n_nodes g >= 3
  && Graph.fold_nodes (fun v acc -> acc && Graph.degree g v = 2) g true

let split_biconnected g0 =
  Nettomo_obs.Obs.Trace.span "graph.triconnected.split" @@ fun () ->
  if Graph.n_nodes g0 < 3 then
    Errors.invalid_arg "Triconnected.split_biconnected: fewer than 3 nodes";
  if not (Biconnected.is_biconnected g0) then
    Errors.invalid_arg "Triconnected.split_biconnected: input not biconnected";
  (* [virtuals] accumulates every virtual link minted so far; each
     component intersects it with its own link set at the end. [pairs]
     lists, in lexicographic order, the block's separation pairs that
     may still separate [g]; a part's children get those after the pair
     that cut it. *)
  let rec split g virtuals pairs =
    if Graph.n_nodes g <= 3 || is_polygon g then [ component_of ~virtuals g ]
    else cut g virtuals pairs
  and cut g virtuals = function
    | [] -> [ component_of ~virtuals g ]
    | (a, b) :: rest when not (Graph.mem_node g a && Graph.mem_node g b) ->
        cut g virtuals rest
    | (a, b) :: rest -> (
        let avoid_nodes = NS.of_list [ a; b ] in
        match Traversal.components ~avoid_nodes g with
        | [] | [ _ ] -> cut g virtuals rest
        | parts ->
            let virtuals =
              if Graph.mem_edge g a b then virtuals
              else ES.add (Graph.edge a b) virtuals
            in
            let g = Graph.add_edge g a b in
            List.concat_map
              (fun part ->
                let keep = NS.union avoid_nodes part in
                split (Graph.induced g keep) virtuals rest)
              parts)
  in
  split g0 ES.empty (Separation.Internal.cut_pairs g0)

type t = {
  blocks : (Biconnected.component * component list) list;
  cut_vertices : NS.t;
  separation_pairs : Graph.edge list;
  separation_vertices : NS.t;
}

let assemble (bc : Biconnected.result) ~split ~cut_pairs =
  let blocks =
    List.map
      (fun (block : Biconnected.component) ->
        (block, if NS.cardinal block.nodes < 3 then [] else split block))
      bc.components
  in
  let separation_pairs =
    List.concat_map
      (fun ((block : Biconnected.component), _) ->
        if NS.cardinal block.nodes < 4 then [] else cut_pairs block)
      blocks
  in
  let separation_vertices =
    List.fold_left
      (fun acc (a, b) -> NS.add a (NS.add b acc))
      bc.cut_vertices separation_pairs
  in
  { blocks; cut_vertices = bc.cut_vertices; separation_pairs; separation_vertices }

let decompose g =
  Nettomo_obs.Obs.Trace.span "graph.triconnected.decompose" @@ fun () ->
  let on_block f (block : Biconnected.component) =
    f (Graph.induced g block.nodes)
  in
  assemble (Biconnected.decompose g)
    ~split:(on_block split_biconnected)
    ~cut_pairs:(on_block Separation.cut_pairs)
