module Errors = Nettomo_util.Errors
module ES = Graph.EdgeSet

let forest_partition g ~k =
  if k < 1 then Errors.invalid_arg "Sparsify.forest_partition: k must be >= 1";
  let rec loop i g acc =
    if i = 0 then List.rev acc
    else begin
      let f = Traversal.spanning_tree g in
      let rest = ES.fold (fun (u, v) g -> Graph.remove_edge g u v) f g in
      loop (i - 1) rest (f :: acc)
    end
  in
  loop k g []

let certificate g ~k =
  let forests = forest_partition g ~k in
  let base =
    Graph.fold_nodes (fun v acc -> Graph.add_node acc v) g Graph.empty
  in
  List.fold_left
    (fun acc forest ->
      ES.fold (fun (u, v) acc -> Graph.add_edge acc u v) forest acc)
    base forests

let is_three_vertex_connected g =
  Nettomo_obs.Obs.Trace.span "graph.three_connectivity" @@ fun () ->
  (* Certifying pays only when the graph is denser than the certificate
     bound. *)
  if Graph.n_edges g <= 3 * Graph.n_nodes g then
    Separation.is_three_vertex_connected g
  else Separation.is_three_vertex_connected (certificate g ~k:3)
