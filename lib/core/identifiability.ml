module Errors = Nettomo_util.Errors
open Nettomo_graph
module Basis = Nettomo_linalg.Basis

let require_connected fname net =
  if not (Traversal.is_connected (Net.graph net)) then
    Errors.invalid_arg (fname ^ ": the network graph must be connected")

type two_monitor_failure = Condition1 of Graph.edge | Condition2

let pp_failure ppf = function
  | Condition1 e ->
      Format.fprintf ppf "G - %a is not 2-edge-connected (Condition 1)"
        Graph.pp_edge e
  | Condition2 ->
      Format.fprintf ppf "G + m1m2 is not 3-vertex-connected (Condition 2)"

(* Theorem 3.2 on one sub-network Gᵢ whose interior graph is connected
   and which has no direct m₁m₂ link. [stop_at_first] short-circuits for
   the boolean test. *)
let two_monitor_failures_connected ~stop_at_first gi m1 m2 =
  let g = Net.graph gi in
  let interior = Interior.interior_links gi in
  if Graph.EdgeSet.is_empty interior then []
  else begin
    let failures = ref [] in
    (* Condition ①: G - l must stay 2-edge-connected for every interior
       link l. *)
    (try
       Graph.EdgeSet.iter
         (fun l ->
           if not (Bridges.is_two_edge_connected_without g l) then begin
             failures := Condition1 l :: !failures;
             if stop_at_first then raise Exit
           end)
         interior
     with Exit -> ());
    (* Condition ②: G + m₁m₂ must be 3-vertex-connected. The sparse
       certificate kicks in automatically on dense graphs. *)
    if (!failures = [] || not stop_at_first)
       && not (Sparsify.is_three_vertex_connected (Graph.add_edge g m1 m2))
    then failures := Condition2 :: !failures;
    List.rev !failures
  end

let two_monitor_failures ~stop_at_first net =
  require_connected "Identifiability.interior_identifiable_two" net;
  match Net.monitor_list net with
  | [ m1; m2 ] ->
      let rec over_components acc = function
        | [] -> List.rev acc
        | gi :: rest ->
            let fs = two_monitor_failures_connected ~stop_at_first gi m1 m2 in
            if fs <> [] && stop_at_first then List.rev_append acc fs
            else over_components (List.rev_append fs acc) rest
      in
      over_components [] (Interior.decompose_two net)
  | _ ->
      Errors.invalid_arg
        "Identifiability.interior_identifiable_two: exactly two monitors required"

let interior_identifiable_two net =
  two_monitor_failures ~stop_at_first:true net = []

let interior_two_failures net = two_monitor_failures ~stop_at_first:false net

let network_identifiable net =
  require_connected "Identifiability.network_identifiable" net;
  if Graph.n_edges (Net.graph net) = 0 then
    Errors.invalid_arg "Identifiability.network_identifiable: the graph has no links";
  let g = Net.graph net in
  match Net.kappa net with
  | 0 | 1 -> false
  | 2 ->
      (* Theorem 3.1: with two monitors only the single-link network is
         identifiable, and only when both endpoints are the monitors. *)
      Graph.n_edges g = 1
      &&
      let [@warning "-8"] [ m1; m2 ] = Net.monitor_list net in
      Graph.mem_edge g m1 m2
  | _ ->
      (* Cheap necessary condition: in Gex a non-monitor keeps its degree
         from G, and a 3-vertex-connected graph has minimum degree 3.
         This makes random-placement trials on sparse graphs fail in
         O(|V|) instead of running the full sweep. *)
      let degrees_ok =
        Graph.NodeSet.for_all (fun v -> Graph.degree g v >= 3) (Net.non_monitors net)
      in
      degrees_ok
      &&
      (* Theorem 3.3: Gex must be 3-vertex-connected (via the sparse
         certificate when dense). *)
      let ext = Extended.extend net in
      Sparsify.is_three_vertex_connected ext.Extended.graph

(* ------------------------------------------------------------------ *)
(* Ground truth by exact rank                                          *)

let measurement_basis net =
  let g = Net.graph net in
  let space = Measurement.space g in
  let basis = Basis.create (Measurement.n_links space) in
  (try
     List.iter
       (fun (m1, m2) ->
         List.iter
           (fun p -> ignore (Basis.add basis (Measurement.incidence_row space p)))
           (Paths.all_simple_paths g m1 m2);
         if Basis.is_full basis then raise Exit)
       (Net.monitor_pairs net)
   with Exit -> ());
  basis

let identifiable_links_bruteforce net =
  let g = Net.graph net in
  let space = Measurement.space g in
  let basis = measurement_basis net in
  let acc = ref Graph.EdgeSet.empty in
  Array.iteri
    (fun j e -> if Basis.mem_unit basis j then acc := Graph.EdgeSet.add e !acc)
    (Measurement.link_order space);
  !acc

let network_identifiable_bruteforce net =
  Basis.is_full (measurement_basis net)
