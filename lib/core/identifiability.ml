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
    (* Condition ②: G + m₁m₂ must be 3-vertex-connected. *)
    if (!failures = [] || not stop_at_first)
       && not (Separation.is_three_vertex_connected (Graph.add_edge g m1 m2))
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

(* Theorems 3.1 and 3.3 on the flat graph. With κ ≥ 3 a non-monitor
   keeps its degree in Gex, and a 3-vertex-connected graph has minimum
   degree 3, so a non-monitor of degree below 3 settles "no" before
   Gex is built: random-placement trials on sparse graphs fail in
   O(|V|). *)
let identifiable_flat (c : Csr.t) ~monitor =
  match Array.fold_left (fun k m -> if m then k + 1 else k) 0 monitor with
  | 0 | 1 -> false
  | 2 ->
      (* Theorem 3.1: with two monitors only the single-link network is
         identifiable, and only when both endpoints are the monitors. *)
      c.m = 1 && monitor.(c.ends.(0)) && monitor.(c.ends.(1))
  | _ ->
      let rec degrees_ok i =
        i = c.n || ((monitor.(i) || c.xadj.(i + 1) - c.xadj.(i) >= 3) && degrees_ok (i + 1))
      in
      degrees_ok 0 && Separation.is_three_vertex_connected_flat (Csr.extend c monitor)

let monitor_flags (c : Csr.t) net = Array.map (Net.is_monitor net) c.ids

(* With κ ≥ 3 the flat verdict is Gex's 3-connectivity; with κ = 1 or 2
   a virtual monitor has degree κ in Gex, so it is not 3-connected. *)
let extended_three_connected net =
  match Net.kappa net with
  | 0 -> Errors.invalid_arg "Identifiability.extended_three_connected: no monitors"
  | 1 | 2 -> false
  | _ ->
      let c = Csr.of_graph (Net.graph net) in
      identifiable_flat c ~monitor:(monitor_flags c net)

(* The preconditions are read off the flat graph too: one breadth-first
   search for connectivity. *)
let network_identifiable net =
  let c = Csr.of_graph (Net.graph net) in
  if c.n > 0 && (Csr.bfs c 0).reached < c.n then
    Errors.invalid_arg "Identifiability.network_identifiable: the network graph must be connected";
  if c.m = 0 then
    Errors.invalid_arg "Identifiability.network_identifiable: the graph has no links";
  identifiable_flat c ~monitor:(monitor_flags c net)

(* ------------------------------------------------------------------ *)
(* Ground truth by exact rank                                          *)

(* Each path is offered as its ascending link numbers on the flat
   graph, which are the measurement columns. Once the basis is full the
   rows are no longer built, but every pair's paths are still counted,
   so [Paths.Limit_exceeded] is raised exactly as if they were. *)
let measurement_basis net =
  let g = Net.graph net in
  let c = Csr.of_graph g in
  let basis = Basis.create c.Csr.m in
  let cols = Array.make c.Csr.n 0 in
  let rec walk i len = function
    | [] -> len
    | v :: rest ->
        let h = Csr.half_edge c i v in
        let k = c.Csr.eid.(h) in
        let j = ref len in
        while !j > 0 && cols.(!j - 1) > k do
          cols.(!j) <- cols.(!j - 1);
          decr j
        done;
        cols.(!j) <- k;
        walk c.Csr.adj.(h) (len + 1) rest
  in
  let offer = function
    | v :: rest when not (Basis.is_full basis) ->
        ignore (Basis.add_cols basis cols (walk (Csr.index c v) 0 rest))
    | _ -> ()
  in
  (try
     List.iter
       (fun (m1, m2) ->
         Paths.iter_simple_paths g m1 m2 offer;
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
