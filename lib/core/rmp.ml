module Errors = Nettomo_util.Errors
open Nettomo_graph
module Prng = Nettomo_util.Prng
module Pool = Nettomo_util.Pool

let place rng g ~kappa =
  let nodes = Graph.node_array g in
  (* A placement needs two distinct endpoints to measure any path; on a
     single-node (or empty) graph every kappa is out of range, asking
     for kappa = |V| included. *)
  if Array.length nodes < 2 then
    Errors.invalid_arg "Rmp.place: graph must have at least 2 nodes";
  if kappa < 0 || kappa > Array.length nodes then
    Errors.invalid_arg "Rmp.place: kappa out of range";
  Graph.NodeSet.of_list (Array.to_list (Prng.sample rng kappa nodes))

let trial rng g ~kappa =
  let monitors = Graph.NodeSet.elements (place rng g ~kappa) in
  let net = Net.create g ~monitors in
  kappa >= 2 && Identifiability.network_identifiable net

let success_fraction_par ?pool rng g ~kappa ~runs =
  if runs <= 0 then
    Errors.invalid_arg "Rmp.success_fraction_par: runs must be positive";
  (* Trial [i] draws from substream [i] of the parent's pre-advance
     state, and the parent advances exactly once — so the statistics
     (and the caller's subsequent draws from [rng]) are identical for
     every job count and for the no-pool serial path. *)
  let streams = Prng.split_n rng runs in
  let one i = if trial streams.(i) g ~kappa then 1 else 0 in
  let indices = Array.init runs Fun.id in
  let hits =
    Array.fold_left ( + ) 0
      (match pool with
      | Some pool -> Pool.map pool one indices
      | None -> Array.map one indices)
  in
  float_of_int hits /. float_of_int runs
