open Nettomo_graph
module I = Nettomo_util.Invariant
module Linalg_invariant = Nettomo_linalg.Invariant
module Q = Nettomo_linalg.Rational
module Matrix = Nettomo_linalg.Matrix

let check_net net =
  Graph.Invariant.check (Net.graph net);
  let nodes = Graph.node_set (Net.graph net) in
  let monitors = Net.monitors net in
  Graph.NodeSet.iter
    (fun m ->
      I.require (Graph.NodeSet.mem m nodes)
        "Net: monitor %d is not a node of the topology" m)
    monitors;
  I.require
    (Net.kappa net = Graph.NodeSet.cardinal monitors)
    "Net: kappa %d disagrees with %d monitors" (Net.kappa net)
    (Graph.NodeSet.cardinal monitors)

let check_measurement space paths r =
  Linalg_invariant.check_matrix r;
  let n_paths = List.length paths in
  I.require
    (Matrix.rows r = n_paths)
    "Measurement: matrix has %d rows for %d paths" (Matrix.rows r) n_paths;
  I.require
    (Matrix.cols r = Measurement.n_links space)
    "Measurement: matrix has %d columns for %d links" (Matrix.cols r)
    (Measurement.n_links space);
  List.iteri
    (fun i p ->
      let expected = Measurement.incidence_row space p in
      Array.iteri
        (fun j x ->
          I.require
            (Q.equal x Q.zero || Q.equal x Q.one)
            "Measurement: entry (%d, %d) is %s, not 0/1" i j (Q.to_string x);
          I.require (Q.equal x expected.(j))
            "Measurement: row %d disagrees with the incidence row of its path \
             at column %d"
            i j)
        (Matrix.row r i))
    paths

let check_plan net (plan : Solver.plan) =
  check_net net;
  I.require
    (plan.Solver.rank = List.length plan.Solver.paths)
    "Solver: plan rank %d but %d paths" plan.Solver.rank
    (List.length plan.Solver.paths);
  List.iter
    (fun p ->
      match Measurement.check_measurement_path net p with
      | Ok () -> ()
      | Error msg -> I.violationf "Solver: invalid plan path: %s" msg)
    plan.Solver.paths;
  if plan.Solver.paths <> [] then begin
    let r = Measurement.matrix plan.Solver.space plan.Solver.paths in
    check_measurement plan.Solver.space plan.Solver.paths r;
    I.require
      (Matrix.rank r = plan.Solver.rank)
      "Solver: plan claims rank %d but the measurement matrix has rank %d"
      plan.Solver.rank (Matrix.rank r)
  end

(* Theorem 3.3 / Algorithm 1 postcondition: the extended graph Gex of the
   returned placement is 3-vertex-connected (for topologies with at least
   3 nodes and one link; smaller ones degenerate to all-monitor
   placements). *)
let check_mmp g monitors =
  Graph.Invariant.check g;
  let nodes = Graph.node_set g in
  Graph.NodeSet.iter
    (fun m ->
      I.require (Graph.NodeSet.mem m nodes) "Mmp: monitor %d is not a node" m)
    monitors;
  let n = Graph.n_nodes g in
  let kappa = Graph.NodeSet.cardinal monitors in
  if n < 3 then
    I.require (kappa = n) "Mmp: %d-node graph must monitor every node" n
  else begin
    I.require (kappa >= 3) "Mmp: only %d monitors placed, Theorem 3.3 needs 3"
      kappa;
    (* Rules (i)-(ii): every node of degree < 3 is a monitor. *)
    Graph.iter_nodes
      (fun v ->
        if Graph.degree g v < 3 then
          I.require (Graph.NodeSet.mem v monitors)
            "Mmp: degree-%d node %d is not a monitor" (Graph.degree g v) v)
      g;
    let c = Csr.of_graph g in
    let monitor = Array.map (fun v -> Graph.NodeSet.mem v monitors) c.Csr.ids in
    I.require
      (Separation.is_three_vertex_connected_flat (Csr.extend c monitor))
      "Mmp: extended graph of the placement is not 3-vertex-connected \
       (Theorem 3.3 postcondition)"
  end
