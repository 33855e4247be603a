module Errors = Nettomo_util.Errors
open Nettomo_graph
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

(* Sort the first [len] entries of [row] in place. Rows are a few
   links long, so insertion sort. *)
let sort_row (row : int array) len =
  for i = 1 to len - 1 do
    let x = row.(i) in
    let j = ref (i - 1) in
    while !j >= 0 && row.(!j) > x do
      row.(!j + 1) <- row.(!j);
      decr j
    done;
    row.(!j + 1) <- x
  done

(* The exhaustive layer gives up on a monitor pair after this many
   simple paths. *)
let enumeration_limit = 200_000

(* When [p] is a measurement path of the flattened network — at least
   two nodes, all in the graph, none repeated, consecutive ones
   adjacent, both ends monitors — writes its link columns into [row] in
   increasing order and returns how many there are; returns -1
   otherwise. One pass over the path: the first node is looked up in
   the CSR, every later one in its predecessor's row, which also yields
   the link number; a repeat is caught by the per-candidate stamp in
   [seen], so at most one link per node is written. Csr numbers links in
   [Measurement.link_order], so link numbers are the measurement
   columns. *)
let columns (csr : Csr.t) ~monitor ~(seen : int array) ~stamp row p =
  let rec walk i len = function
    | [] ->
        if monitor.(i) then begin
          sort_row row len;
          len
        end
        else -1
    | v :: rest -> (
        match Csr.half_edge csr i v with
        | -1 -> -1
        | k ->
            let j = csr.adj.(k) in
            if seen.(j) = stamp then -1
            else begin
              seen.(j) <- stamp;
              row.(len) <- csr.eid.(k);
              walk j (len + 1) rest
            end)
  in
  match p with
  | v :: (_ :: _ as rest) -> (
      match Csr.find csr v with
      | -1 -> -1
      | i when not monitor.(i) -> -1
      | i ->
          seen.(i) <- stamp;
          walk i 0 rest)
  | [] | [ _ ] -> -1

(* The layered search, returning the accepted rows' node paths in order
   (none unless [keep]) and the exact basis they span. *)
let search ~keep ?rng ?max_stall ?seeds net =
  let g = Net.graph net in
  let csr = Csr.of_graph g in
  let n = csr.Csr.m in
  let rng = match rng with Some r -> r | None -> Prng.create 0x6e65740a in
  let max_stall = Option.value max_stall ~default:(50 * (n + 1)) in
  let basis = Basis.create n in
  let monitor = Array.map (Net.is_monitor net) csr.Csr.ids in
  let seen = Array.make csr.Csr.n 0 in
  let stamp = ref 0 in
  (* Float prefilter: almost every candidate near full rank is
     dependent, and rejecting it against a float basis costs
     microseconds instead of an exact rational elimination. Only the
     accepted rows are confirmed exactly, and a confirmed row enters the
     float basis from the residual its test left there; [offer] says
     whether the row entered the basis, and its caller then puts the
     candidate's node path into the plan when [keep]. Every layer hands
     its rows over in [row], one buffer: a simple path has at most one
     link per node. *)
  let fbasis = Fbasis.create n in
  let row = Array.make csr.Csr.n 0 in
  let accepted = ref [] in
  let offer cols len =
    if not (Fbasis.would_increase_rank fbasis cols len) then begin
      Obs.Metrics.incr prefilter_rejects;
      false
    end
    else begin
      Obs.Metrics.incr exact_rows;
      Basis.add_cols basis cols len
      && begin
           ignore (Fbasis.add_reduced fbasis);
           true
         end
    end
  in
  (* A node path from layers 2 and 3: offered when it is a measurement
     path, ignored otherwise, so those layers may over-approximate. *)
  let offer_path p =
    incr stamp;
    let len = columns csr ~monitor ~seen ~stamp:!stamp row p in
    len >= 0
    && offer row len
    && begin
         if keep then accepted := p :: !accepted;
         true
       end
  in
  (* A row that starts at index [src], kept with its node path when
     [keep]: from each node, the one link of the row not yet walked.
     Rows come from generators that only emit simple paths between
     monitors, so they are not validated again. *)
  let on_row = Array.make csr.Csr.m 0 in
  let offer_row src cols len =
    if offer cols len && keep then begin
      incr stamp;
      for i = 0 to len - 1 do
        on_row.(cols.(i)) <- !stamp
      done;
      let rec walk x prev path =
        let next = ref (-1) in
        for h = csr.Csr.xadj.(x) to csr.Csr.xadj.(x + 1) - 1 do
          let k = csr.Csr.eid.(h) in
          if on_row.(k) = !stamp && k <> prev then next := h
        done;
        if !next < 0 then List.rev path
        else
          let y = csr.Csr.adj.(!next) in
          walk y csr.Csr.eid.(!next) (csr.Csr.ids.(y) :: path)
      in
      accepted := walk src (-1) [ csr.Csr.ids.(src) ] :: !accepted
    end
  in
  let pairs = Net.monitor_pairs net in
  if pairs <> [] && n > 0 then begin
    (* Layer 0: ready-made rows from the caller (e.g. the constructive
       spanning-tree candidates of [Measure.Paths.simple_candidates]),
       generated on this search's flat graph — structured rows that
       cover far more of the space than the random layer reaches
       within its stall budget. *)
    Option.iter
      (fun seeds ->
        seeds csr ~monitor (fun src cols len ->
            if not (Basis.is_full basis) then offer_row src cols len))
      seeds;
    (* Layer 1: shortest paths between all monitor pairs, in
       [monitor_pairs] order, read off one breadth-first tree per
       source monitor. *)
    let rec layer1 = function
      | m1 :: (_ :: _ as rest) ->
          let src = Csr.index csr m1 in
          let { Csr.parent; parent_eid; depth; _ } = Csr.bfs csr src in
          let rec up x len =
            if x = src then len
            else begin
              row.(len) <- parent_eid.(x);
              up parent.(x) (len + 1)
            end
          in
          List.iter
            (fun m2 ->
              let dst = Csr.index csr m2 in
              if depth.(dst) >= 0 then begin
                let len = up dst 0 in
                sort_row row len;
                offer_row src row len
              end)
            rest;
          layer1 rest
      | [] | [ _ ] -> ()
    in
    layer1 (Net.monitor_list net);
    (* Layer 2: randomized simple paths until full rank or stall. *)
    let pair_arr = Array.of_list pairs in
    let stall = ref 0 in
    while (not (Basis.is_full basis)) && !stall < max_stall do
      let m1, m2 = pair_arr.(Prng.int rng (Array.length pair_arr)) in
      match Paths.random_simple_path rng g m1 m2 with
      | Some p -> if offer_path p then stall := 0 else incr stall
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
                (fun p -> ignore (offer_path p))
                (Paths.all_simple_paths ~limit:enumeration_limit g m1 m2)
            with Paths.Limit_exceeded -> ())
        pairs
  end;
  (List.rev !accepted, basis)

let independent_paths ?rng ?max_stall ?seeds net =
  Obs.Trace.span "solver.independent_paths" @@ fun () ->
  let space = Measurement.space (Net.graph net) in
  let paths, basis = search ~keep:true ?rng ?max_stall ?seeds net in
  { space; paths; rank = Basis.rank basis }

let basis ?rng ?max_stall ?seeds net =
  Obs.Trace.span "solver.independent_paths" @@ fun () ->
  snd (search ~keep:false ?rng ?max_stall ?seeds net)

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
