module ES = Graph.EdgeSet

(* The sweep over [c], once [search (-1)] has marked G's own cut
   vertices in [is_cut]: [{v, u}] for every non-cut-vertex v with G - v
   connected and every cut-vertex u of G - v that is not one of G. *)
let sweep (c : Csr.t) is_cut search =
  let acc = ref ES.empty in
  let is_cut0 = Array.copy is_cut in
  for v = 0 to c.n - 1 do
    if (not is_cut0.(v)) && search v <= 1 then
      for u = 0 to c.n - 1 do
        if is_cut.(u) && not is_cut0.(u) then
          acc := ES.add (Graph.edge c.ids.(v) c.ids.(u)) !acc
      done
  done;
  ES.elements !acc

let cut_pairs g =
  Nettomo_obs.Obs.Trace.span "graph.separation.cut_pairs" @@ fun () ->
  let c = Csr.of_graph g in
  if c.n < 4 then []
  else begin
    let is_cut, search = Biconnected.Internal.cut_vertices_without c in
    ignore (search (-1));
    sweep c is_cut search
  end

(* G is biconnected iff it has 3 nodes or more and the sweep's first
   search finds one component and no cut vertex. *)
let block_pairs g =
  Nettomo_obs.Obs.Trace.span "graph.separation.cut_pairs" @@ fun () ->
  let c = Csr.of_graph g in
  let is_cut, search = Biconnected.Internal.cut_vertices_without c in
  if c.n < 3 || search (-1) > 1 || Array.exists Fun.id is_cut then None
  else if c.n = 3 then Some []
  else Some (sweep c is_cut search)

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
