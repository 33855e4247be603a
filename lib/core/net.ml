module Errors = Nettomo_util.Errors
open Nettomo_graph

type t = {
  graph : Graph.t;
  monitors : Graph.NodeSet.t;
  labels : string Graph.NodeMap.t;
}

let create ?(labels = Graph.NodeMap.empty) graph ~monitors =
  let set = Graph.NodeSet.of_list monitors in
  if Graph.NodeSet.cardinal set <> List.length monitors then
    Errors.invalid_arg "Net.create: duplicate monitors";
  Graph.NodeSet.iter
    (fun m ->
      if not (Graph.mem_node graph m) then
        Errors.invalid_arg "Net.create: monitor is not a node of the graph")
    set;
  { graph; monitors = set; labels }

let graph t = t.graph
let monitors t = t.monitors
let monitor_list t = Graph.NodeSet.elements t.monitors
let kappa t = Graph.NodeSet.cardinal t.monitors
let is_monitor t v = Graph.NodeSet.mem v t.monitors
let non_monitors t = Graph.NodeSet.diff (Graph.node_set t.graph) t.monitors
let labels t = t.labels

let label t v =
  match Graph.NodeMap.find_opt v t.labels with
  | Some s -> s
  | None -> string_of_int v

let with_monitors t monitors = create ~labels:t.labels t.graph ~monitors

let monitor_pairs t =
  let ms = monitor_list t in
  List.concat_map
    (fun m1 -> List.filter_map (fun m2 -> if m1 < m2 then Some (m1, m2) else None) ms)
    ms
