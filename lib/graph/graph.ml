module Errors = Nettomo_util.Errors
type node = int

module NodeSet = Set.Make (Int)
module NodeMap = Map.Make (Int)

type edge = node * node

let edge (u : node) v =
  if u = v then Errors.invalid_arg "Graph.edge: self-loop"
  else if u < v then (u, v)
  else (v, u)

let edge_other ((u : node), v) x =
  if x = u then v
  else if x = v then u
  else Errors.invalid_arg "Graph.edge_other: not an endpoint"

let edge_compare (a1, b1) (a2, b2) =
  match Int.compare a1 a2 with 0 -> Int.compare b1 b2 | c -> c

let edge_equal a b = edge_compare a b = 0

let pp_edge ppf (u, v) = Format.fprintf ppf "%d-%d" u v

module EdgeOrd = struct
  type t = edge

  let compare = edge_compare
end

module EdgeSet = Set.Make (EdgeOrd)
module EdgeMap = Map.Make (EdgeOrd)

(* Adjacency map: every node present in the graph is a key, mapped to its
   neighbor set. The edge count is cached. The invariant is symmetry:
   [v ∈ adj(u)] iff [u ∈ adj(v)]. *)
type t = { adj : NodeSet.t NodeMap.t; m : int }

let empty = { adj = NodeMap.empty; m = 0 }

let is_empty g = NodeMap.is_empty g.adj

let mem_node g v = NodeMap.mem v g.adj

let neighbors g v =
  match NodeMap.find_opt v g.adj with Some s -> s | None -> NodeSet.empty

let neighbor_list g v = NodeSet.elements (neighbors g v)

let degree g v = NodeSet.cardinal (neighbors g v)

let mem_edge g u v = u <> v && NodeSet.mem v (neighbors g u)

let add_node g v =
  if mem_node g v then g else { g with adj = NodeMap.add v NodeSet.empty g.adj }

let add_edge g u v =
  if u = v then Errors.invalid_arg "Graph.add_edge: self-loop"
  else if mem_edge g u v then g
  else
    let adj =
      g.adj
      |> NodeMap.update u (fun s ->
             Some (NodeSet.add v (Option.value s ~default:NodeSet.empty)))
      |> NodeMap.update v (fun s ->
             Some (NodeSet.add u (Option.value s ~default:NodeSet.empty)))
    in
    { adj; m = g.m + 1 }

let remove_edge g u v =
  if not (mem_edge g u v) then g
  else
    let adj =
      g.adj
      |> NodeMap.update u (Option.map (NodeSet.remove v))
      |> NodeMap.update v (Option.map (NodeSet.remove u))
    in
    { adj; m = g.m - 1 }

let remove_node g v =
  match NodeMap.find_opt v g.adj with
  | None -> g
  | Some nbrs ->
      let adj =
        NodeSet.fold
          (fun u acc -> NodeMap.update u (Option.map (NodeSet.remove v)) acc)
          nbrs g.adj
      in
      { adj = NodeMap.remove v adj; m = g.m - NodeSet.cardinal nbrs }

let of_edges ?(nodes = []) pairs =
  let g = List.fold_left add_node empty nodes in
  List.fold_left (fun g (u, v) -> add_edge g u v) g pairs

let n_nodes g = NodeMap.cardinal g.adj

let n_edges g = g.m

let nodes g = NodeMap.fold (fun v _ acc -> v :: acc) g.adj [] |> List.rev

let node_set g = NodeMap.fold (fun v _ acc -> NodeSet.add v acc) g.adj NodeSet.empty

let node_array g = Array.of_list (nodes g)

let fold_edges f g acc =
  NodeMap.fold
    (fun u nbrs acc ->
      NodeSet.fold (fun v acc -> if u < v then f (u, v) acc else acc) nbrs acc)
    g.adj acc

let edges g = List.rev (fold_edges (fun e acc -> e :: acc) g [])

let edge_set g = fold_edges EdgeSet.add g EdgeSet.empty

let iter_edges f g = fold_edges (fun e () -> f e) g ()

let fold_nodes f g acc = NodeMap.fold (fun v _ acc -> f v acc) g.adj acc

let iter_nodes f g = NodeMap.iter (fun v _ -> f v) g.adj

let incident_edges g v =
  NodeSet.fold (fun u acc -> edge u v :: acc) (neighbors g v) [] |> List.rev

let induced g keep =
  NodeSet.fold
    (fun v acc ->
      let nbrs = NodeSet.inter (neighbors g v) keep in
      let acc = add_node acc v in
      NodeSet.fold (fun u acc -> add_edge acc u v) nbrs acc)
    keep empty

let remove_nodes g drop = NodeSet.fold (fun v acc -> remove_node acc v) drop g

let union g1 g2 =
  let g = fold_nodes (fun v acc -> add_node acc v) g2 g1 in
  fold_edges (fun (u, v) acc -> add_edge acc u v) g2 g

let min_degree g =
  if is_empty g then Errors.invalid_arg "Graph.min_degree: empty graph"
  else NodeMap.fold (fun _ nbrs acc -> min acc (NodeSet.cardinal nbrs)) g.adj max_int

let max_degree g =
  if is_empty g then Errors.invalid_arg "Graph.max_degree: empty graph"
  else NodeMap.fold (fun _ nbrs acc -> max acc (NodeSet.cardinal nbrs)) g.adj 0

let fresh_node g =
  match NodeMap.max_binding_opt g.adj with
  | None -> 0
  | Some (hi, _) when hi < max_int -> hi + 1
  | Some _ ->
      (* [max_int + 1] wraps onto [min_int], which may be a node: take
         the first free identifier upwards from there instead. *)
      let rec free v = if mem_node g v then free (v + 1) else v in
      free min_int

let equal g1 g2 =
  NodeMap.equal NodeSet.equal g1.adj g2.adj

let pp ppf g =
  Format.fprintf ppf "@[<hv>graph{%d nodes, %d links:" (n_nodes g) (n_edges g);
  iter_edges (fun e -> Format.fprintf ppf "@ %a" pp_edge e) g;
  Format.fprintf ppf "}@]"

module Invariant = struct
  module I = Nettomo_util.Invariant

  let check g =
    let incidences = ref 0 in
    NodeMap.iter
      (fun u nbrs ->
        NodeSet.iter
          (fun v ->
            I.require (u <> v) "Graph: self-loop at node %d" u;
            (match NodeMap.find_opt v g.adj with
            | None ->
                I.violationf "Graph: neighbor %d of node %d is not a node" v u
            | Some back ->
                I.require (NodeSet.mem u back)
                  "Graph: asymmetric adjacency %d->%d without %d->%d" u v v u);
            incr incidences)
          nbrs)
      g.adj;
    (* Sum of degrees must be twice the cached link count (handshake). *)
    I.require (!incidences = 2 * g.m)
      "Graph: cached link count %d but adjacency holds %d incidences (expected %d)"
      g.m !incidences (2 * g.m)

  module Testing = struct
    let half_add s v = Some (NodeSet.add v (Option.value s ~default:NodeSet.empty))

    let with_edge_count g m = { g with m }

    let with_half_edge g u v = { g with adj = NodeMap.update u (fun s -> half_add s v) g.adj }

    let with_self_loop g v =
      { adj = NodeMap.update v (fun s -> half_add s v) g.adj; m = g.m + 1 }
  end
end
