module Errors = Nettomo_util.Errors
open Nettomo_graph

(* Identifiability of a possibly-disconnected survivor network: every
   connected component that still has links must be identifiable on its
   own with the monitors that fell inside it (components are monitored
   independently, Section 2.1). *)
let identifiable_possibly_disconnected g monitors =
  Traversal.components g
  |> List.for_all (fun comp ->
         let sub = Graph.induced g comp in
         if Graph.n_edges sub = 0 then true
         else begin
           let ms = Graph.NodeSet.inter comp monitors in
           Graph.NodeSet.cardinal ms >= 2
           && Identifiability.network_identifiable
                (Net.create sub ~monitors:(Graph.NodeSet.elements ms))
         end)

let survives_link_failure net (u, v) =
  let g = Net.graph net in
  if not (Graph.mem_edge g u v) then
    Errors.invalid_arg "Robustness.survives_link_failure: link not in graph";
  identifiable_possibly_disconnected (Graph.remove_edge g u v) (Net.monitors net)

let survives_node_failure net x =
  let g = Net.graph net in
  if not (Graph.mem_node g x) then
    Errors.invalid_arg "Robustness.survives_node_failure: node not in graph";
  identifiable_possibly_disconnected (Graph.remove_node g x)
    (Graph.NodeSet.remove x (Net.monitors net))

type report = {
  critical_links : Graph.EdgeSet.t;
  critical_nodes : Graph.NodeSet.t;
  total_links : int;
  total_nodes : int;
}

let analyze net =
  let g = Net.graph net in
  if not (identifiable_possibly_disconnected g (Net.monitors net)) then
    Errors.invalid_arg
      "Robustness.analyze: the placement does not identify the intact network";
  let critical_links =
    Graph.fold_edges
      (fun e acc ->
        if survives_link_failure net e then acc else Graph.EdgeSet.add e acc)
      g Graph.EdgeSet.empty
  in
  let critical_nodes =
    Graph.fold_nodes
      (fun v acc ->
        if survives_node_failure net v then acc else Graph.NodeSet.add v acc)
      g Graph.NodeSet.empty
  in
  {
    critical_links;
    critical_nodes;
    total_links = Graph.n_edges g;
    total_nodes = Graph.n_nodes g;
  }

let fraction_critical_links r =
  if r.total_links = 0 then 0.0
  else float_of_int (Graph.EdgeSet.cardinal r.critical_links) /. float_of_int r.total_links

let fraction_critical_nodes r =
  if r.total_nodes = 0 then 0.0
  else float_of_int (Graph.NodeSet.cardinal r.critical_nodes) /. float_of_int r.total_nodes

let pp ppf r =
  Format.fprintf ppf
    "@[<v>critical links: %d / %d (%.0f%%)@,critical nodes: %d / %d (%.0f%%)@]"
    (Graph.EdgeSet.cardinal r.critical_links)
    r.total_links
    (100.0 *. fraction_critical_links r)
    (Graph.NodeSet.cardinal r.critical_nodes)
    r.total_nodes
    (100.0 *. fraction_critical_nodes r)
