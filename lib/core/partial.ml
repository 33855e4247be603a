module Errors = Nettomo_util.Errors
open Nettomo_graph
module Q = Nettomo_linalg.Rational
module Basis = Nettomo_linalg.Basis

type mode = Exact | Sampled

type report = {
  mode : mode;
  rank : int;
  identifiable : Graph.EdgeSet.t;
  unidentifiable : Graph.EdgeSet.t;
}

let membership_sets space basis =
  let n = Measurement.n_links space in
  let order = Measurement.link_order space in
  let yes = ref Graph.EdgeSet.empty and no = ref Graph.EdgeSet.empty in
  Array.iteri
    (fun j e ->
      let unit = Array.make n Q.zero in
      unit.(j) <- Q.one;
      if Basis.mem basis unit then yes := Graph.EdgeSet.add e !yes
      else no := Graph.EdgeSet.add e !no)
    order;
  (!yes, !no)

let analyze ?rng ?(exact_node_limit = 12) net =
  if Net.kappa net < 2 then Errors.invalid_arg "Partial.analyze: need at least two monitors";
  let g = Net.graph net in
  let space = Measurement.space g in
  let mode = if Graph.n_nodes g <= exact_node_limit then Exact else Sampled in
  let basis =
    match mode with
    | Exact -> Identifiability.measurement_basis net
    | Sampled ->
        (* The span of the maximal plan: its paths are linearly
           independent and (w.h.p.) maximal. *)
        snd (Solver.independent_paths_with_basis ?rng net)
  in
  let identifiable, unidentifiable = membership_sets space basis in
  { mode; rank = Basis.rank basis; identifiable; unidentifiable }

let coverage r =
  let total =
    Graph.EdgeSet.cardinal r.identifiable + Graph.EdgeSet.cardinal r.unidentifiable
  in
  if total = 0 then 1.0
  else float_of_int (Graph.EdgeSet.cardinal r.identifiable) /. float_of_int total

let pp ppf r =
  Format.fprintf ppf "@[<v>%s analysis: rank %d, %d identifiable / %d links (%.0f%%)@]"
    (match r.mode with Exact -> "exact" | Sampled -> "sampled")
    r.rank
    (Graph.EdgeSet.cardinal r.identifiable)
    (Graph.EdgeSet.cardinal r.identifiable + Graph.EdgeSet.cardinal r.unidentifiable)
    (100.0 *. coverage r)
