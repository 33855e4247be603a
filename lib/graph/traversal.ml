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

(* The breadth-first search behind distances, shortest paths and
   spanning forests: from each root in turn that is not yet reached,
   neighbours in increasing order, each node's parent fixed at its first
   discovery (a root is its own parent). Returns the parents and the
   nodes in reverse visit order, stopping as soon as [stop] is
   discovered. *)
let bfs g roots ~stop =
  let parent = ref NM.empty and order = ref [] in
  let q = Queue.create () in
  let discover u p =
    parent := NM.add u p !parent;
    order := u :: !order;
    Queue.add u q
  in
  let scan v u =
    if not (NM.mem u !parent) then begin
      discover u v;
      match stop with
      | Some s when s = u -> raise_notrace Exit
      | Some _ | None -> ()
    end
  in
  (try
     List.iter
       (fun root ->
         if not (NM.mem root !parent) then begin
           discover root root;
           while not (Queue.is_empty q) do
             let v = Queue.pop q in
             NS.iter (scan v) (Graph.neighbors g v)
           done
         end)
       roots
   with Exit -> ());
  (!parent, !order)

let bfs_distances g src =
  if not (Graph.mem_node g src) then
    Errors.invalid_arg "Traversal.bfs_distances: unknown source";
  let parent, order = bfs g [ src ] ~stop:None in
  List.fold_left
    (fun dist v ->
      let p = NM.find v parent in
      NM.add v (if p = v then 0 else NM.find p dist + 1) dist)
    NM.empty (List.rev order)

let shortest_path g src dst =
  if not (Graph.mem_node g src && Graph.mem_node g dst) then
    Errors.invalid_arg "Traversal.shortest_path: unknown endpoint";
  if src = dst then Some [ src ]
  else
    let parent, _ = bfs g [ src ] ~stop:(Some dst) in
    let rec build v acc =
      if v = src then src :: acc else build (NM.find v parent) (v :: acc)
    in
    if NM.mem dst parent then Some (build dst []) else None

let spanning_tree g =
  let parent, _ = bfs g (Graph.nodes g) ~stop:None in
  NM.fold
    (fun v p tree ->
      if p = v then tree else Graph.EdgeSet.add (Graph.edge v p) tree)
    parent Graph.EdgeSet.empty
