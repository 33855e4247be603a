module NS = Graph.NodeSet
module ES = Graph.EdgeSet

type component = { nodes : NS.t; edges : ES.t }

type result = { components : component list; cut_vertices : NS.t }

(* Iterative Tarjan biconnected-components DFS over the Csr rows.
   [skip_node] is an optional Csr index to pretend-delete so that
   3-vertex-connectivity sweeps can test G - v in place.

   Returns (blocks as index-edge lists, cut vertex indices, isolated
   visited roots, number of connected components). *)
let decompose_csr (c : Csr.t) ~skip_node =
  let n = c.n in
  let disc = Array.make n (-1) in
  let low = Array.make n max_int in
  let parent = Array.make n (-1) in
  let parent_skipped = Array.make n false in
  (* Position in [c.adj] of each node's next unscanned neighbour. *)
  let next = Array.sub c.xadj 0 n in
  let children_of_root = Array.make n 0 in
  let is_cut = Array.make n false in
  let time = ref 0 in
  let n_components = ref 0 in
  let edge_stack = ref [] in
  let blocks = ref [] in
  let isolated_roots = ref [] in
  let skipped v = match skip_node with Some s -> v = s | None -> false in
  let pop_block (u, v) =
    (* Pop stacked edges down to and including (u, v): one block. *)
    let rec loop acc =
      match !edge_stack with
      | [] -> acc
      | (a, b) :: rest ->
          edge_stack := rest;
          let acc = (a, b) :: acc in
          if a = u && b = v then acc else loop acc
    in
    blocks := loop [] :: !blocks
  in
  let dfs_from root =
    if disc.(root) >= 0 || skipped root then ()
    else begin
      incr n_components;
      let stack = ref [ root ] in
      disc.(root) <- !time;
      low.(root) <- !time;
      incr time;
      let root_had_edges = ref false in
      while !stack <> [] do
        match !stack with
        | [] -> ()
        | u :: rest ->
            if next.(u) < c.xadj.(u + 1) then begin
              let v = c.adj.(next.(u)) in
              next.(u) <- next.(u) + 1;
              if skipped v then ()
              else if v = parent.(u) && not parent_skipped.(u) then
                parent_skipped.(u) <- true
              else if disc.(v) < 0 then begin
                if u = root then root_had_edges := true;
                parent.(v) <- u;
                if u = root then children_of_root.(root) <- children_of_root.(root) + 1;
                edge_stack := (u, v) :: !edge_stack;
                disc.(v) <- !time;
                low.(v) <- !time;
                incr time;
                stack := v :: !stack
              end
              else if disc.(v) < disc.(u) then begin
                if u = root then root_had_edges := true;
                edge_stack := (u, v) :: !edge_stack;
                low.(u) <- min low.(u) disc.(v)
              end
            end
            else begin
              stack := rest;
              let p = parent.(u) in
              if p >= 0 then begin
                low.(p) <- min low.(p) low.(u);
                if low.(u) >= disc.(p) then begin
                  (* (p, u) closes a block; p is a cut vertex unless it is
                     the root, whose status depends on its child count. *)
                  if p <> root then is_cut.(p) <- true;
                  pop_block (p, u)
                end
              end
            end
      done;
      if children_of_root.(root) > 1 then is_cut.(root) <- true;
      if not !root_had_edges then isolated_roots := root :: !isolated_roots
    end
  in
  for v = 0 to n - 1 do
    dfs_from v
  done;
  (!blocks, is_cut, !isolated_roots, !n_components)

module Internal = struct
  let decompose_csr = decompose_csr

  let connected_and_cut_free c skip_node =
    let _, is_cut, _, n_components = decompose_csr c ~skip_node in
    n_components <= 1 && Array.for_all not is_cut
end

let decompose g =
  Nettomo_obs.Obs.Trace.span "graph.biconnected" @@ fun () ->
  let c = Csr.of_graph g in
  let blocks, is_cut, isolated, _ = decompose_csr c ~skip_node:None in
  let component_of_block edge_idxs =
    List.fold_left
      (fun acc (a, b) ->
        let e = Graph.edge c.ids.(a) c.ids.(b) in
        {
          nodes = NS.add (fst e) (NS.add (snd e) acc.nodes);
          edges = ES.add e acc.edges;
        })
      { nodes = NS.empty; edges = ES.empty }
      edge_idxs
  in
  let components = List.map component_of_block blocks in
  let components =
    List.fold_left
      (fun acc i ->
        { nodes = NS.singleton c.ids.(i); edges = ES.empty } :: acc)
      components isolated
  in
  let cut_vertices = ref NS.empty in
  Array.iteri
    (fun i cut -> if cut then cut_vertices := NS.add c.ids.(i) !cut_vertices)
    is_cut;
  { components; cut_vertices = !cut_vertices }

let cut_vertices g = (decompose g).cut_vertices

let is_biconnected g =
  Graph.n_nodes g >= 3 && Internal.connected_and_cut_free (Csr.of_graph g) None
