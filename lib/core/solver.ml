module Errors = Nettomo_util.Errors
open Nettomo_graph
module Q = Nettomo_linalg.Rational
module Basis = Nettomo_linalg.Basis
module Matrix = Nettomo_linalg.Matrix
module Fbasis = Nettomo_linalg.Fbasis
module Prng = Nettomo_util.Prng
module Obs = Nettomo_obs.Obs

type plan = {
  space : Measurement.space;
  paths : Paths.path list;
  rank : int;
}

(* Work counters for the search's exact layer: rows confirmed by exact
   elimination, and candidates the float prefilter turned away before
   any rational row was built. Deterministic for a given net and seed,
   so benches can gate on them where wall time is too noisy. *)
let exact_rows = Obs.Metrics.counter "solver_exact_rows_total"
let prefilter_rejects = Obs.Metrics.counter "solver_prefilter_rejects_total"

(* A candidate's link columns in increasing order when it is a
   measurement path of the flattened network — at least two nodes, all
   in the graph, none repeated, consecutive ones adjacent, both ends
   monitors — and [None] otherwise. One pass over the path: the first
   node is looked up in the CSR, every later one in its predecessor's
   row, which also yields the link number; a repeat is caught by the
   per-candidate stamp in [seen]. Csr numbers links in
   [Measurement.link_order], so link numbers are the measurement
   columns. *)
let columns (csr : Csr.t) ~monitor ~seen ~stamp p =
  let rec walk i cols = function
    | [] -> if monitor.(i) then Some (List.sort Int.compare cols) else None
    | v :: rest -> (
        match Csr.half_edge csr i v with
        | -1 -> None
        | k ->
            let j = csr.adj.(k) in
            if seen.(j) = stamp then None
            else begin
              seen.(j) <- stamp;
              walk j (csr.eid.(k) :: cols) rest
            end)
  in
  match p with
  | v :: (_ :: _ as rest) -> (
      match Csr.find csr v with
      | -1 -> None
      | i when not monitor.(i) -> None
      | i ->
          seen.(i) <- stamp;
          walk i [] rest)
  | [] | [ _ ] -> None

let independent_paths_with_basis ?rng ?max_stall ?(enumeration_limit = 200_000)
    ?(seed_paths = []) net =
  Obs.Trace.span "solver.independent_paths" @@ fun () ->
  let g = Net.graph net in
  let space = Measurement.space g in
  let n = Measurement.n_links space in
  let rng = match rng with Some r -> r | None -> Prng.create 0x6e65740a in
  let max_stall = Option.value max_stall ~default:(50 * (n + 1)) in
  let basis = Basis.create n in
  let csr = Csr.of_graph g in
  let monitor = Array.map (Net.is_monitor net) csr.Csr.ids in
  let seen = Array.make csr.Csr.n 0 in
  let stamp = ref 0 in
  (* Float prefilter: almost every candidate near full rank is
     dependent, and rejecting it against a float basis costs
     microseconds instead of an exact rational elimination. Only the
     accepted rows are built over ℚ and confirmed exactly before
     entering the plan. Candidates that are not measurement paths are
     ignored rather than rejected, so callers can over-approximate. *)
  let fbasis = Fbasis.create n in
  let accepted = ref [] in
  let offer p =
    incr stamp;
    match columns csr ~monitor ~seen ~stamp:!stamp p with
    | None -> false
    | Some cols when not (Fbasis.would_increase_rank fbasis cols) ->
        Obs.Metrics.incr prefilter_rejects;
        false
    | Some cols ->
        let row = Array.make n Q.zero in
        List.iter (fun j -> row.(j) <- Q.one) cols;
        Obs.Metrics.incr exact_rows;
        if Basis.add basis row then begin
          ignore (Fbasis.add fbasis cols);
          accepted := p :: !accepted;
          true
        end
        else false
  in
  let pairs = Net.monitor_pairs net in
  if pairs <> [] && n > 0 then begin
    (* Layer 0: caller-supplied candidates (e.g. the constructive
       spanning-tree paths of [Measure.Paths.simple_candidates]) —
       structured rows that cover far more of the space than the random
       layer reaches within its stall budget. *)
    List.iter (fun p -> if not (Basis.is_full basis) then ignore (offer p)) seed_paths;
    (* Layer 1: shortest paths between all monitor pairs, one search
       per source (pairs come grouped by their first monitor). *)
    let from = ref None in
    List.iter
      (fun (m1, m2) ->
        let paths =
          match !from with
          | Some (src, paths) when src = m1 -> paths
          | Some _ | None ->
              let paths = Traversal.shortest_paths_from g m1 in
              from := Some (m1, paths);
              paths
        in
        Option.iter (fun p -> ignore (offer p)) (paths m2))
      pairs;
    (* Layer 2: randomized simple paths until full rank or stall. *)
    let pair_arr = Array.of_list pairs in
    let stall = ref 0 in
    while (not (Basis.is_full basis)) && !stall < max_stall do
      let m1, m2 = pair_arr.(Prng.int rng (Array.length pair_arr)) in
      match Paths.random_simple_path rng g m1 m2 with
      | Some p -> if offer p then stall := 0 else incr stall
      | None -> incr stall
    done;
    (* Layer 3: exhaustive enumeration as a completeness fallback —
       only on small graphs, where the number of simple paths is
       tractable. *)
    if (not (Basis.is_full basis)) && Graph.n_nodes g <= 16 then
      List.iter
        (fun (m1, m2) ->
          if not (Basis.is_full basis) then
            try
              List.iter
                (fun p -> ignore (offer p))
                (Paths.all_simple_paths ~limit:enumeration_limit g m1 m2)
            with Paths.Limit_exceeded -> ())
        pairs
  end;
  ({ space; paths = List.rev !accepted; rank = Basis.rank basis }, basis)

let independent_paths ?rng ?max_stall ?enumeration_limit ?seed_paths net =
  fst
    (independent_paths_with_basis ?rng ?max_stall ?enumeration_limit
       ?seed_paths net)

let full_rank net plan =
  plan.rank = Graph.n_edges (Net.graph net) && plan.rank = List.length plan.paths

let solve plan c =
  let n = Measurement.n_links plan.space in
  if plan.rank <> n || List.length plan.paths <> n then
    Errors.invalid_arg "Solver.solve: plan is not full rank";
  if Array.length c <> n then Errors.invalid_arg "Solver.solve: measurement length mismatch";
  let r = Measurement.matrix plan.space plan.paths in
  match Matrix.solve r c with
  | None ->
      (* The plan rows are independent, so R is invertible and any
         consistent c has a solution; an inconsistent c means the
         measurements do not come from this plan. *)
      Errors.invalid_arg "Solver.solve: inconsistent measurements"
  | Some w ->
      let order = Measurement.link_order plan.space in
      Array.to_list (Array.mapi (fun j x -> (order.(j), x)) w)

let recover ?rng net weights =
  let plan = independent_paths ?rng net in
  if not (full_rank net plan) then None
  else begin
    let c = Measurement.measure_all weights plan.paths in
    Some (solve plan c)
  end
