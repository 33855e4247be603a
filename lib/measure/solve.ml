module Graph = Nettomo_graph.Graph
module Csr = Nettomo_graph.Csr
open Nettomo_core
open Nettomo_linalg
module Invariant_gate = Nettomo_util.Invariant

type solution = {
  links : Graph.edge array;
  metrics : float array;
  measurements : int;
}

let recover (plan : Paths.t) values =
  Nettomo_obs.Obs.Trace.span "measure.solve" @@ fun () ->
  let csr = plan.Paths.csr in
  let n = csr.n and m = csr.m in
  if Array.length values <> m then
    Nettomo_util.Errors.invalid_arg "Measure.Solve.recover: measurement vector length mismatch";
  let a = values.(0) in
  let phi = Array.make n 0.0 in
  phi.(plan.Paths.second) <- a;
  for v = 0 to n - 1 do
    let row = plan.Paths.probe_row.(v) in
    if row >= 0 then phi.(v) <- (values.(row) -. a) /. 2.0
  done;
  let metrics = Array.make m 0.0 in
  (* Tree links: potential differences along the BFS tree. *)
  for v = 0 to n - 1 do
    let p = plan.Paths.parent.(v) in
    if p >= 0 then metrics.(plan.Paths.parent_eid.(v)) <- phi.(v) -. phi.(p)
  done;
  (* Chord links: substitution from the detour value. *)
  for k = 0 to m - 1 do
    let row = plan.Paths.chord_row.(k) in
    if row >= 0 then begin
      let u, v = Csr.endpoints csr k in
      metrics.(k) <- values.(row) -. phi.(u) -. phi.(v) -. a
    end
  done;
  { links = Array.init m (Csr.edge csr); metrics; measurements = m }

(* Largest link count for which the exact rank check runs: it is
   cubic. *)
let check_rank_limit = 64

(* Exact full-rank certificate: the walks' link-multiplicity matrix
   (entries count traversals, not 0/1) must be invertible over ℚ. *)
let check_full_rank (plan : Paths.t) =
  let m = plan.Paths.csr.m in
  if m > 0 && m <= check_rank_limit then begin
    let rows =
      Array.init m (fun i ->
          let row = Array.make m 0 in
          List.iter (fun k -> row.(k) <- row.(k) + 1) (Paths.walk_eids plan i);
          row)
    in
    let rank = Matrix.rank (Matrix.of_int_rows rows) in
    Invariant_gate.require (rank = m)
      "Measure.Solve: constructed matrix has rank %d over %d links" rank m
  end

let check_recovery truth (sol : solution) =
  Array.iteri
    (fun k e ->
      let exact = Rational.to_float (Measurement.weight truth e) in
      let got = sol.metrics.(k) in
      let scale = Float.max 1.0 (Float.abs exact) in
      Invariant_gate.require
        (Float.abs (got -. exact) <= 1e-6 *. scale)
        "Measure.Solve: link %a recovered as %.17g, truth %.17g"
        (fun () e -> Format.asprintf "%a" Graph.pp_edge e)
        e got exact)
    sol.links

(* The ground-truth metric of every link, by link number. The truth's
   bindings and the link numbers are both in lexicographic order, so
   one in-order walk of the map fills every link up to the first one
   the truth lacks; the links from there on are looked up one by one,
   so [Measurement.weight] raises its error for that link. *)
let truth_weights (csr : Csr.t) truth =
  let w = Array.make csr.m 0.0 in
  let k = ref 0 in
  Graph.EdgeMap.iter
    (fun e x ->
      if !k < csr.m && Graph.edge_equal e (Csr.edge csr !k) then begin
        w.(!k) <- Rational.to_float x;
        incr k
      end)
    truth;
  for j = !k to csr.m - 1 do
    w.(j) <- Rational.to_float (Measurement.weight truth (Csr.edge csr j))
  done;
  w

let simulate net truth =
  Nettomo_obs.Obs.Trace.span "measure.simulate" @@ fun () ->
  match Paths.plan net with
  | Error _ as e -> e
  | Ok plan ->
      let w = truth_weights plan.Paths.csr truth in
      let values = Paths.measure plan w in
      let sol = recover plan values in
      Invariant_gate.check (fun () ->
          Paths.Invariant.check net plan;
          check_full_rank plan;
          check_recovery truth sol);
      Ok sol

let solution_equal a b =
  a.measurements = b.measurements
  && Array.length a.links = Array.length b.links
  && Array.for_all2 (fun x y -> Graph.edge_equal x y) a.links b.links
  && Array.for_all2 (fun (x : float) y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       a.metrics b.metrics
