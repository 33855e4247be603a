module Errors = Nettomo_util.Errors
open Nettomo_graph

type t = { graph : Graph.t; vm1 : Graph.node; vm2 : Graph.node }

let extend net =
  if Net.kappa net = 0 then Errors.invalid_arg "Extended.extend: no monitors";
  let g = Net.graph net in
  let vm1 = Graph.fresh_node g in
  let vm2 = Graph.fresh_node (Graph.add_node g vm1) in
  let graph =
    Graph.NodeSet.fold
      (fun m acc -> Graph.add_edge (Graph.add_edge acc vm1 m) vm2 m)
      (Net.monitors net) g
  in
  Nettomo_util.Invariant.check (fun () -> Graph.Invariant.check graph);
  { graph; vm1; vm2 }

let as_two_monitor_net net =
  let { graph; vm1; vm2 } = extend net in
  Net.create ~labels:(Net.labels net) graph ~monitors:[ vm1; vm2 ]
