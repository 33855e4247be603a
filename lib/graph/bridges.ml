module Errors = Nettomo_util.Errors

(* In a simple graph a bridge is exactly a block with one link, so the
   block DFS answers both questions. Returns the flat graph, the links
   of the single-link blocks, and the number of DFS roots. *)
let single_link_blocks g =
  let c = Csr.of_graph g in
  let f = Biconnected.Internal.decompose_csr c in
  let size = Array.make f.n_blocks 0 in
  Array.iter (fun b -> size.(b) <- size.(b) + 1) f.block_of_link;
  let singles = ref [] in
  for k = c.m - 1 downto 0 do
    if size.(f.block_of_link.(k)) = 1 then singles := k :: !singles
  done;
  (c, !singles, f.n_components)

let bridges g =
  let c, singles, _ = single_link_blocks g in
  List.fold_left
    (fun acc k -> Graph.EdgeSet.add (Csr.edge c k) acc)
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
