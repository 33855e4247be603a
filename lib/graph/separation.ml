module ES = Graph.EdgeSet

(* The sweep: [{v, u}] for every non-cut-vertex v with G - v connected
   and every cut-vertex u of G - v that is not one of G. *)
let cut_pairs g =
  Nettomo_obs.Obs.Trace.span "graph.separation.cut_pairs" @@ fun () ->
  let acc = ref ES.empty in
  let c = Csr.of_graph g in
  let n = c.n in
  if n >= 4 then begin
    let is_cut, search = Biconnected.Internal.cut_vertices_without c in
    ignore (search (-1));
    let is_cut0 = Array.copy is_cut in
    for v = 0 to n - 1 do
      if (not is_cut0.(v)) && search v <= 1 then
        for u = 0 to n - 1 do
          if is_cut.(u) && not is_cut0.(u) then
            acc := ES.add (Graph.edge c.ids.(v) c.ids.(u)) !acc
        done
    done
  end;
  ES.elements !acc

let is_three_vertex_connected g =
  Nettomo_obs.Obs.Trace.span "graph.three_connectivity" @@ fun () ->
  Graph.n_nodes g >= 4
  &&
  let c = Csr.of_graph g in
  let cut_free = Biconnected.Internal.connected_and_cut_free c in
  let ok = ref true in
  let v = ref 0 in
  while !ok && !v < c.n do
    if not (cut_free !v) then ok := false;
    incr v
  done;
  !ok
