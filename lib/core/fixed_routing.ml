module Errors = Nettomo_util.Errors
open Nettomo_graph
module Basis = Nettomo_linalg.Basis

(* BFS with smallest-identifier tie-breaking: parents are assigned in
   increasing node order per BFS level, so the resulting route is unique
   and symmetric under endpoint swap (the lexicographically smallest
   shortest path, traversed from either end, is the same node set...
   not in general — so symmetry is enforced by routing from the smaller
   endpoint and reversing when needed). *)
let route g u v =
  if u = v then Errors.invalid_arg "Fixed_routing.route: equal endpoints";
  let src = min u v and dst = max u v in
  match Traversal.shortest_path g src dst with
  | None -> None
  | Some p -> if src = u then Some p else Some (List.rev p)

let measurement_paths g ~monitors =
  let sorted = List.sort_uniq Int.compare monitors in
  List.concat_map
    (fun m1 ->
      List.filter_map
        (fun m2 ->
          if m1 < m2 then Option.map Fun.id (route g m1 m2) else None)
        sorted)
    sorted

let basis_of g ~monitors =
  let space = Measurement.space g in
  let basis = Basis.create (Measurement.n_links space) in
  List.iter
    (fun p ->
      if List.length p >= 2 then
        ignore (Basis.add basis (Measurement.incidence_row space p)))
    (measurement_paths g ~monitors);
  (space, basis)

let rank_of g ~monitors = Basis.rank (snd (basis_of g ~monitors))

let identifiable_links g ~monitors =
  let space, basis = basis_of g ~monitors in
  let acc = ref Graph.EdgeSet.empty in
  Array.iteri
    (fun j e -> if Basis.mem_unit basis j then acc := Graph.EdgeSet.add e !acc)
    (Measurement.link_order space);
  !acc

let max_rank g = rank_of g ~monitors:(Graph.nodes g)

let greedy_place ?target_rank g =
  let target = match target_rank with Some t -> t | None -> max_rank g in
  let nodes = Graph.nodes g in
  let rec grow monitors rank =
    if rank >= target then List.rev monitors
    else begin
      (* Pick the candidate with the best rank gain (ties: smallest id). *)
      let best =
        List.fold_left
          (fun acc v ->
            if List.mem v monitors then acc
            else begin
              let r = rank_of g ~monitors:(v :: monitors) in
              match acc with
              | Some (_, best_r) when best_r >= r -> acc
              | _ -> Some (v, r)
            end)
          None nodes
      in
      match best with
      | Some (v, r) when r > rank -> grow (v :: monitors) r
      | Some (v, r) when List.length monitors < 2 ->
          (* The first additions cannot increase rank on their own
             (a single monitor measures nothing); keep seeding. *)
          grow (v :: monitors) r
      | _ -> List.rev monitors (* no candidate helps: maximal *)
    end
  in
  grow [] 0

let rec subsets_of_size k = function
  | [] -> if k = 0 then [ [] ] else []
  | x :: rest ->
      if k = 0 then [ [] ]
      else
        List.map (fun s -> x :: s) (subsets_of_size (k - 1) rest)
        @ subsets_of_size k rest

let optimal_kappa_bruteforce ?max_kappa g =
  let target = max_rank g in
  let nodes = Graph.nodes g in
  let cap = Option.value max_kappa ~default:(List.length nodes) in
  let rec try_kappa k =
    if k > cap then None
    else if
      List.exists
        (fun monitors -> rank_of g ~monitors >= target)
        (subsets_of_size k nodes)
    then Some k
    else try_kappa (k + 1)
  in
  try_kappa (if target = 0 then 0 else 2)
