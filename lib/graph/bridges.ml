module Errors = Nettomo_util.Errors

(* Iterative Tarjan lowlink computation. [skip] is an optional edge (as a
   pair of Csr indices) to pretend-delete, so callers can test G - l
   without rebuilding adjacency. Returns the bridge list as index pairs
   and whether the traversal from index 0 reached every node. *)
let bridges_csr (c : Csr.t) ~skip =
  let n = c.n in
  if n = 0 then ([], true)
  else begin
    let disc = Array.make n (-1) in
    let low = Array.make n max_int in
    let parent = Array.make n (-1) in
    (* With simple graphs the unique edge to the parent must be skipped
       exactly once as a back edge; [parent_skipped] tracks that. *)
    let parent_skipped = Array.make n false in
    let time = ref 0 in
    let bridges = ref [] in
    let visited = ref 0 in
    let skipped u v =
      match skip with
      | None -> false
      | Some (a, b) -> (u = a && v = b) || (u = b && v = a)
    in
    (* Position in [c.adj] of each node's next unscanned neighbour. *)
    let next = Array.sub c.xadj 0 n in
    let dfs_from root =
      if disc.(root) >= 0 then ()
      else begin
        let stack = ref [ root ] in
        disc.(root) <- !time;
        low.(root) <- !time;
        incr time;
        incr visited;
        while !stack <> [] do
          match !stack with
          | [] -> ()
          | u :: rest ->
              if next.(u) < c.xadj.(u + 1) then begin
                let v = c.adj.(next.(u)) in
                next.(u) <- next.(u) + 1;
                if skipped u v then ()
                else if v = parent.(u) && not parent_skipped.(u) then
                  parent_skipped.(u) <- true
                else if disc.(v) < 0 then begin
                  parent.(v) <- u;
                  disc.(v) <- !time;
                  low.(v) <- !time;
                  incr time;
                  incr visited;
                  stack := v :: !stack
                end
                else low.(u) <- min low.(u) disc.(v)
              end
              else begin
                (* Post-order: propagate lowlink to the parent and decide
                   whether the tree edge is a bridge. *)
                stack := rest;
                let p = parent.(u) in
                if p >= 0 then begin
                  low.(p) <- min low.(p) low.(u);
                  if low.(u) > disc.(p) then bridges := (p, u) :: !bridges
                end
              end
        done
      end
    in
    dfs_from 0;
    let connected = !visited = n in
    for v = 1 to n - 1 do
      dfs_from v
    done;
    (!bridges, connected)
  end

let bridges g =
  let c = Csr.of_graph g in
  let idx_bridges, _ = bridges_csr c ~skip:None in
  List.fold_left
    (fun acc (u, v) -> Graph.EdgeSet.add (Graph.edge c.ids.(u) c.ids.(v)) acc)
    Graph.EdgeSet.empty idx_bridges

let two_edge_connected_csr (c : Csr.t) ~skip =
  if c.n < 2 then false
  else
    let idx_bridges, connected = bridges_csr c ~skip in
    connected && idx_bridges = []

let is_two_edge_connected g = two_edge_connected_csr (Csr.of_graph g) ~skip:None

let is_two_edge_connected_without g (u, v) =
  if not (Graph.mem_edge g u v) then
    Errors.invalid_arg "Bridges.is_two_edge_connected_without: edge not in graph";
  let c = Csr.of_graph g in
  two_edge_connected_csr c ~skip:(Some (Csr.index c u, Csr.index c v))
