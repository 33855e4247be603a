module Errors = Nettomo_util.Errors
module NS = Graph.NodeSet
module NM = Graph.NodeMap

let reachable ?(avoid_nodes = NS.empty) g start =
  if NS.mem start avoid_nodes then
    Errors.invalid_arg "Traversal.reachable: start node is avoided";
  if not (Graph.mem_node g start) then
    Errors.invalid_arg "Traversal.reachable: unknown start node";
  let rec loop frontier seen =
    match frontier with
    | [] -> seen
    | v :: rest ->
        let next, seen =
          NS.fold
            (fun u ((frontier, seen) as acc) ->
              if NS.mem u seen || NS.mem u avoid_nodes then acc
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

let is_connected g =
  match Graph.nodes g with
  | [] -> true
  | v :: _ -> NS.cardinal (reachable g v) = Graph.n_nodes g

let shortest_path g src dst =
  if not (Graph.mem_node g src && Graph.mem_node g dst) then
    Errors.invalid_arg "Traversal.shortest_path: unknown endpoint";
  if src = dst then Some [ src ]
  else begin
    (* Breadth-first from [src], neighbours in increasing order, each
       node's parent fixed at its first discovery, stopping as soon as
       [dst] is discovered. *)
    let parent = ref (NM.singleton src src) in
    let q = Queue.create () in
    Queue.add src q;
    (try
       while not (Queue.is_empty q) do
         let v = Queue.pop q in
         NS.iter
           (fun u ->
             if not (NM.mem u !parent) then begin
               parent := NM.add u v !parent;
               if u = dst then raise_notrace Exit;
               Queue.add u q
             end)
           (Graph.neighbors g v)
       done
     with Exit -> ());
    let rec build v acc =
      if v = src then src :: acc else build (NM.find v !parent) (v :: acc)
    in
    if NM.mem dst !parent then Some (build dst []) else None
  end
