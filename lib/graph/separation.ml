module ES = Graph.EdgeSet

(* Shared sweep: call [f v u] for every ordered pair where u is a
   cut-vertex of G - v, for non-cut-vertex v, and with G - v connected.
   [f] returns [true] to continue, [false] to stop the sweep early. *)
let sweep g ~f =
  let c = Csr.of_graph g in
  let n = c.n in
  if n >= 4 then begin
    let is_cut, search = Biconnected.Internal.cut_vertices_without c in
    ignore (search (-1));
    let is_cut0 = Array.copy is_cut in
    let continue_ = ref true in
    let v = ref 0 in
    while !continue_ && !v < n do
      if (not is_cut0.(!v)) && search !v <= 1 then begin
        let u = ref 0 in
        while !continue_ && !u < n do
          if is_cut.(!u) && not is_cut0.(!u) then
            continue_ := f c.ids.(!v) c.ids.(!u);
          incr u
        done
      end;
      incr v
    done
  end

let cut_pairs g =
  Nettomo_obs.Obs.Trace.span "graph.separation.cut_pairs" @@ fun () ->
  let acc = ref ES.empty in
  sweep g ~f:(fun v u ->
      acc := ES.add (Graph.edge v u) !acc;
      true);
  ES.elements !acc

let first_cut_pair g =
  let found = ref None in
  sweep g ~f:(fun v u ->
      found := Some (Graph.edge v u);
      false);
  !found

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
