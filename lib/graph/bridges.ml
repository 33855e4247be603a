module Errors = Nettomo_util.Errors

(* In a simple graph a bridge is exactly a block with one link, so the
   block DFS answers both questions. Returns the flat graph, the
   single-link blocks as index pairs, and the number of DFS roots. *)
let single_link_blocks g =
  let c = Csr.of_graph g in
  let blocks, _, _, n_roots =
    Biconnected.Internal.decompose_csr c ~skip_node:None
  in
  let singles =
    List.filter_map (function [ link ] -> Some link | _ -> None) blocks
  in
  (c, singles, n_roots)

let bridges g =
  let c, singles, _ = single_link_blocks g in
  List.fold_left
    (fun acc (u, v) -> Graph.EdgeSet.add (Graph.edge c.ids.(u) c.ids.(v)) acc)
    Graph.EdgeSet.empty singles

let is_two_edge_connected g =
  Graph.n_nodes g >= 2
  &&
  let _, singles, n_roots = single_link_blocks g in
  n_roots = 1 && singles = []

let is_two_edge_connected_without g (u, v) =
  if not (Graph.mem_edge g u v) then
    Errors.invalid_arg "Bridges.is_two_edge_connected_without: edge not in graph";
  is_two_edge_connected (Graph.remove_edge g u v)
