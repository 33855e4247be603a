module Errors = Nettomo_util.Errors
open Nettomo_graph
open Nettomo_linalg

type space = { order : Graph.edge array; index : int Graph.EdgeMap.t }

let space g =
  let order = Array.of_list (Graph.edges g) in
  let index =
    Array.to_seq order |> Seq.mapi (fun i e -> (e, i)) |> Graph.EdgeMap.of_seq
  in
  { order; index }

let n_links s = Array.length s.order
let link_order s = Array.copy s.order

let column s e =
  match Graph.EdgeMap.find_opt e s.index with
  | Some i -> i
  | None -> raise Not_found

let check_measurement_path net p =
  let g = Net.graph net in
  if not (Nettomo_graph.Paths.is_simple_path g p) then
    Error "not a simple path of the network graph"
  else begin
    let src = List.hd p and dst = List.nth p (List.length p - 1) in
    if not (Net.is_monitor net src) then Error "path does not start at a monitor"
    else if not (Net.is_monitor net dst) then Error "path does not end at a monitor"
    else if src = dst then Error "path endpoints must be distinct monitors"
    else Ok ()
  end

let is_measurement_path net p = Result.is_ok (check_measurement_path net p)

let incidence_row s p =
  let row = Array.make (n_links s) Rational.zero in
  List.iter
    (fun e ->
      match Graph.EdgeMap.find_opt e s.index with
      | Some j -> row.(j) <- Rational.one
      | None -> Errors.invalid_arg "Measurement.incidence_row: link outside the space")
    (Nettomo_graph.Paths.path_edges p);
  row

let matrix s paths =
  match paths with
  | [] -> Errors.invalid_arg "Measurement.matrix: no paths"
  | _ -> Matrix.of_rows (Array.of_list (List.map (incidence_row s) paths))

type weights = Rational.t Graph.EdgeMap.t

let random_weights ?(lo = 1) ?(hi = 100) rng g =
  if lo > hi then Errors.invalid_arg "Measurement.random_weights: empty range";
  Graph.fold_edges
    (fun e acc ->
      Graph.EdgeMap.add e (Rational.of_int (Nettomo_util.Prng.int_in rng lo hi)) acc)
    g Graph.EdgeMap.empty

let weight w e =
  match Graph.EdgeMap.find_opt e w with
  | Some x -> x
  | None -> Errors.invalid_arg "Measurement.weight: link without a metric"

let measure w p =
  List.fold_left
    (fun acc e -> Rational.add acc (weight w e))
    Rational.zero
    (Nettomo_graph.Paths.path_edges p)

let measure_all w paths = Array.of_list (List.map (measure w) paths)
