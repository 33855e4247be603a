module Errors = Nettomo_util.Errors
module NS = Graph.NodeSet
module NM = Graph.NodeMap

let reachable ?(avoid_nodes = NS.empty) ?avoid_edge g start =
  if NS.mem start avoid_nodes then
    Errors.invalid_arg "Traversal.reachable: start node is avoided";
  if not (Graph.mem_node g start) then
    Errors.invalid_arg "Traversal.reachable: unknown start node";
  let blocked u v =
    match avoid_edge with
    | None -> false
    | Some e -> Graph.edge_equal e (Graph.edge u v)
  in
  let rec loop frontier seen =
    match frontier with
    | [] -> seen
    | v :: rest ->
        let next, seen =
          NS.fold
            (fun u ((frontier, seen) as acc) ->
              if NS.mem u seen || NS.mem u avoid_nodes || blocked v u then acc
              else (u :: frontier, NS.add u seen))
            (Graph.neighbors g v) (rest, seen)
        in
        loop next seen
  in
  loop [ start ] (NS.singleton start)

let component_of g v = reachable g v

let components ?(avoid_nodes = NS.empty) g =
  let remaining = NS.diff (Graph.node_set g) avoid_nodes in
  let rec loop remaining acc =
    match NS.min_elt_opt remaining with
    | None -> List.rev acc
    | Some v ->
        let comp = reachable ~avoid_nodes g v in
        loop (NS.diff remaining comp) (comp :: acc)
  in
  loop remaining []

let is_connected ?(avoid_nodes = NS.empty) ?avoid_edge g =
  let remaining = NS.diff (Graph.node_set g) avoid_nodes in
  match NS.min_elt_opt remaining with
  | None -> true
  | Some v ->
      let comp = reachable ~avoid_nodes ?avoid_edge g v in
      NS.cardinal comp = NS.cardinal remaining

let n_components ?avoid_nodes g = List.length (components ?avoid_nodes g)

let bfs_distances g src =
  if not (Graph.mem_node g src) then
    Errors.invalid_arg "Traversal.bfs_distances: unknown source";
  let dist = ref (NM.singleton src 0) in
  let q = Queue.create () in
  Queue.add src q;
  while not (Queue.is_empty q) do
    let v = Queue.pop q in
    let d = NM.find v !dist in
    NS.iter
      (fun u ->
        if not (NM.mem u !dist) then begin
          dist := NM.add u (d + 1) !dist;
          Queue.add u q
        end)
      (Graph.neighbors g v)
  done;
  !dist

(* BFS parent pointers from [src] (which is its own parent), in
   ascending-neighbour order, until [stop] is discovered; every node
   discovered by then has the parent a full search gives it, so both
   agree on the path to [stop]. *)
let bfs_parents g src stop =
  let parent = ref (NM.singleton src src) in
  let q = Queue.create () in
  Queue.add src q;
  let found = ref false in
  while (not !found) && not (Queue.is_empty q) do
    let v = Queue.pop q in
    NS.iter
      (fun u ->
        if not (NM.mem u !parent) then begin
          parent := NM.add u v !parent;
          if u = stop then found := true else Queue.add u q
        end)
      (Graph.neighbors g v)
  done;
  !parent

let path_to parent src dst =
  if not (NM.mem dst parent) then None
  else begin
    let rec build v acc =
      if v = src then src :: acc else build (NM.find v parent) (v :: acc)
    in
    Some (build dst [])
  end

let shortest_path g src dst =
  if not (Graph.mem_node g src && Graph.mem_node g dst) then
    Errors.invalid_arg "Traversal.shortest_path: unknown endpoint";
  if src = dst then Some [ src ]
  else path_to (bfs_parents g src dst) src dst

let spanning_tree g =
  let seen = ref NS.empty in
  let tree = ref Graph.EdgeSet.empty in
  let visit root =
    if not (NS.mem root !seen) then begin
      seen := NS.add root !seen;
      let q = Queue.create () in
      Queue.add root q;
      while not (Queue.is_empty q) do
        let v = Queue.pop q in
        NS.iter
          (fun u ->
            if not (NS.mem u !seen) then begin
              seen := NS.add u !seen;
              tree := Graph.EdgeSet.add (Graph.edge u v) !tree;
              Queue.add u q
            end)
          (Graph.neighbors g v)
      done
    end
  in
  Graph.iter_nodes visit g;
  !tree
