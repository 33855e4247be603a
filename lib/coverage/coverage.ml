module Errors = Nettomo_util.Errors
module Prng = Nettomo_util.Prng
module Obs = Nettomo_obs.Obs
open Nettomo_graph
module Net = Nettomo_core.Net
module Identifiability = Nettomo_core.Identifiability
module Measurement = Nettomo_core.Measurement
module Solver = Nettomo_core.Solver
module Basis = Nettomo_linalg.Basis

type mode = Structural | Exact | Sampled

type reason =
  | Whole_network
  | Monitor_link
  | Low_degree
  | Unmeasurable
  | Block_theorem
  | Block_rank
  | Rank
  | Unresolved

type verdict = {
  identifiable : bool;
  reason : reason;
}

type report = {
  mode : mode;
  verdicts : verdict Graph.EdgeMap.t;
  identifiable : Graph.EdgeSet.t;
  unidentifiable : Graph.EdgeSet.t;
}

(* ------------------------------------------------------------------ *)
(* Block-cut tree: which blocks carry monitor-to-monitor paths, and
   through which terminals. *)

type blocktree = {
  blocks : Biconnected.component array;
  cut_set : Graph.NodeSet.t;
  cuts : Graph.node array;  (* ascending *)
  block_cuts : int array array;  (* block index -> indices into [cuts] *)
  cut_blocks : int array array;  (* cut index -> indices into [blocks] *)
}

let blocktree g =
  let d = Biconnected.decompose g in
  let blocks = Array.of_list d.Biconnected.components in
  let cut_set = d.Biconnected.cut_vertices in
  let cuts = Array.of_list (Graph.NodeSet.elements cut_set) in
  let cut_ids =
    let m = ref Graph.NodeMap.empty in
    Array.iteri (fun i c -> m := Graph.NodeMap.add c i !m) cuts;
    !m
  in
  let block_cuts =
    Array.map
      (fun (b : Biconnected.component) ->
        Graph.NodeSet.inter b.nodes cut_set
        |> Graph.NodeSet.elements
        |> List.map (fun c -> Graph.NodeMap.find c cut_ids)
        |> Array.of_list)
      blocks
  in
  let cut_blocks =
    let acc = Array.make (Array.length cuts) [] in
    (* Reverse block order so each per-cut list comes out ascending. *)
    for bi = Array.length blocks - 1 downto 0 do
      Array.iter (fun ci -> acc.(ci) <- bi :: acc.(ci)) block_cuts.(bi)
    done;
    Array.map Array.of_list acc
  in
  { blocks; cut_set; cuts; block_cuts; cut_blocks }

(* Terminals of every block under a given monitor predicate: the
   non-cut monitors inside the block plus each of its cut vertices that
   is a monitor or has a monitor strictly beyond it (away from the
   block). A block lies on a measurement path iff it has >= 2
   terminals, and then its measurement paths enter and leave exactly at
   terminal pairs. Computed by one bottom-up pass over the (rooted)
   block-cut tree per connected component. *)
let terminals_of t is_mon =
  let nb = Array.length t.blocks and nc = Array.length t.cuts in
  let noncut_mon =
    Array.map
      (fun (b : Biconnected.component) ->
        Graph.NodeSet.fold
          (fun v acc ->
            if is_mon v && not (Graph.NodeSet.mem v t.cut_set) then acc + 1
            else acc)
          b.nodes 0)
      t.blocks
  in
  let sub_block = Array.make nb 0 and sub_cut = Array.make nc 0 in
  let parent_block = Array.make nb (-1) and parent_cut = Array.make nc (-1) in
  let comp_total = Array.make nb 0 in
  let seen_block = Array.make nb false and seen_cut = Array.make nc false in
  for root = 0 to nb - 1 do
    if not seen_block.(root) then begin
      (* Pre-order DFS; prepending to [order] yields children before
         parents, so one walk over it is a valid bottom-up schedule. *)
      let order = ref [] in
      let stack = ref [ `B root ] in
      seen_block.(root) <- true;
      while !stack <> [] do
        match !stack with
        | [] -> ()
        | x :: rest ->
            stack := rest;
            order := x :: !order;
            (match x with
            | `B b ->
                Array.iter
                  (fun c ->
                    if not seen_cut.(c) then begin
                      seen_cut.(c) <- true;
                      parent_cut.(c) <- b;
                      stack := `C c :: !stack
                    end)
                  t.block_cuts.(b)
            | `C c ->
                Array.iter
                  (fun b ->
                    if not seen_block.(b) then begin
                      seen_block.(b) <- true;
                      parent_block.(b) <- c;
                      stack := `B b :: !stack
                    end)
                  t.cut_blocks.(c))
      done;
      List.iter
        (function
          | `B b ->
              sub_block.(b) <-
                noncut_mon.(b)
                + Array.fold_left
                    (fun acc c ->
                      if parent_cut.(c) = b then acc + sub_cut.(c) else acc)
                    0 t.block_cuts.(b)
          | `C c ->
              sub_cut.(c) <-
                (if is_mon t.cuts.(c) then 1 else 0)
                + Array.fold_left
                    (fun acc b ->
                      if parent_block.(b) = c then acc + sub_block.(b) else acc)
                    0 t.cut_blocks.(c))
        !order;
      let total = sub_block.(root) in
      List.iter
        (function `B b -> comp_total.(b) <- total | `C _ -> ())
        !order
    end
  done;
  Array.mapi
    (fun bi (b : Biconnected.component) ->
      let base =
        Graph.NodeSet.filter
          (fun v -> is_mon v && not (Graph.NodeSet.mem v t.cut_set))
          b.nodes
      in
      Array.fold_left
        (fun acc ci ->
          let c = t.cuts.(ci) in
          let self = if is_mon c then 1 else 0 in
          let beyond =
            if parent_block.(bi) = ci then
              comp_total.(bi) - sub_block.(bi) - self
            else sub_cut.(ci) - self
          in
          if self = 1 || beyond > 0 then Graph.NodeSet.add c acc else acc)
        base t.block_cuts.(bi))
    t.blocks

let relevant_blocks t terminals =
  Array.mapi
    (fun bi (b : Biconnected.component) ->
      Graph.NodeSet.cardinal terminals.(bi) >= 2
      && not (Graph.EdgeSet.is_empty b.edges))
    t.blocks

(* ------------------------------------------------------------------ *)

let classify ?(seed = 0) ?(exact_node_limit = 12) ?(rank_node_limit = 160) net =
  if Net.kappa net < 2 then
    Errors.invalid_arg "Coverage.classify: need at least two monitors";
  Obs.Trace.span "coverage.classify" @@ fun () ->
  let g = Net.graph net in
  let edges = Graph.edges g in
  let finish mode verdicts =
    let identifiable, unidentifiable =
      Graph.EdgeMap.fold
        (fun e (v : verdict) (yes, no) ->
          if v.identifiable then (Graph.EdgeSet.add e yes, no)
          else (yes, Graph.EdgeSet.add e no))
        verdicts
        (Graph.EdgeSet.empty, Graph.EdgeSet.empty)
    in
    { mode; verdicts; identifiable; unidentifiable }
  in
  if edges = [] then finish Structural Graph.EdgeMap.empty
  else if Traversal.is_connected g && Identifiability.network_identifiable net
  then
    finish Structural
      (List.fold_left
         (fun acc e ->
           Graph.EdgeMap.add e { identifiable = true; reason = Whole_network }
             acc)
         Graph.EdgeMap.empty edges)
  else begin
    let is_mon v = Net.is_monitor net v in
    let t = blocktree g in
    let terminals = terminals_of t is_mon in
    let relevant = relevant_blocks t terminals in
    let measurable =
      let acc = ref Graph.EdgeSet.empty in
      Array.iteri
        (fun bi (b : Biconnected.component) ->
          if relevant.(bi) then acc := Graph.EdgeSet.union b.edges !acc)
        t.blocks;
      !acc
    in
    let low_degree (u, v) =
      (not (is_mon u)) && Graph.degree g u < 3
      || ((not (is_mon v)) && Graph.degree g v < 3)
    in
    (* First structural pass over every link. *)
    let verdicts, undecided =
      List.fold_left
        (fun (vs, und) e ->
          let u, v = e in
          if is_mon u && is_mon v then
            ( Graph.EdgeMap.add e { identifiable = true; reason = Monitor_link }
                vs,
              und )
          else if low_degree e then
            ( Graph.EdgeMap.add e
                { identifiable = false; reason = Low_degree }
                vs,
              und )
          else if not (Graph.EdgeSet.mem e measurable) then
            ( Graph.EdgeMap.add e
                { identifiable = false; reason = Unmeasurable }
                vs,
              und )
          else (vs, Graph.EdgeSet.add e und))
        (Graph.EdgeMap.empty, Graph.EdgeSet.empty)
        edges
    in
    (* Per-block stage. A measurement path crossing block B restricts,
       on B's columns, to one simple path between two distinct
       terminals of B, so the global row space projects into B's
       terminal-pair measurement space — membership there is a
       necessary condition for every block. When every terminal of B is
       itself a real monitor the condition is also sufficient: the
       within-B terminal-pair paths are complete measurement paths of
       the full graph, so the block-local space embeds back into the
       global one. Such blocks are decided outright — by the paper's
       Theorem 3.1/3.3 verdict on the block net when it accepts the
       whole block, by block-local exact rank when the block is small
       enough to enumerate. *)
    let verdicts, undecided =
      let vs = ref verdicts and und = ref undecided in
      Array.iteri
        (fun bi (b : Biconnected.component) ->
          let mine = Graph.EdgeSet.inter b.edges !und in
          if relevant.(bi) && not (Graph.EdgeSet.is_empty mine) then begin
            let term = terminals.(bi) in
            let monitor_terminals =
              Graph.NodeSet.for_all (Net.is_monitor net) term
            in
            let bg = Graph.of_edges (Graph.EdgeSet.elements b.edges) in
            let bnet = Net.create bg ~monitors:(Graph.NodeSet.elements term) in
            let decide e identifiable =
              vs :=
                Graph.EdgeMap.add e { identifiable; reason = Block_rank } !vs;
              und := Graph.EdgeSet.remove e !und
            in
            if monitor_terminals && Identifiability.network_identifiable bnet
            then
              Graph.EdgeSet.iter
                (fun e ->
                  vs :=
                    Graph.EdgeMap.add e
                      { identifiable = true; reason = Block_theorem }
                      !vs;
                  und := Graph.EdgeSet.remove e !und)
                mine
            else if Graph.NodeSet.cardinal b.nodes <= exact_node_limit then begin
              match Identifiability.measurement_basis bnet with
              | exception Paths.Limit_exceeded ->
                  (* Too many block paths to enumerate — leave the
                     links to the global fallback. *)
                  ()
              | basis ->
                  let space = Measurement.space bg in
                  Graph.EdgeSet.iter
                    (fun e ->
                      let inside = Basis.mem_unit basis (Measurement.column space e) in
                      if monitor_terminals then decide e inside
                      else if not inside then decide e false)
                    mine
            end
          end)
        t.blocks;
      (!vs, !und)
    in
    if Graph.EdgeSet.is_empty undecided then finish Structural verdicts
    else begin
      (* Rank fallback on the pruned sub-network: the union of the
         relevant blocks carries exactly the measurement paths of the
         full graph, so row-space membership there equals membership in
         the full measurement space. Measurement paths never cross
         between connected components, so the fallback runs per
         component — the size bounds apply to each piece, not to their
         sum, and one oversized component no longer forfeits the rest.
         Past [rank_node_limit] nodes a component's surviving links are
         conservatively reported unidentifiable — the report stays a
         sound lower bound, exactly like Sampled mode. The bound guards
         the path search's total work, which grows faster than the
         component: up to 48 seed rows per link (8 roots, 3 detours per
         orientation) through the float prefilter, one accepted row per
         unit of rank, and for each an exact elimination whose sweep and
         applied rows grow with the component's links and rank. Lifting
         it changes answers. Within the bound, the
         sampled layer is seeded with the constructive spanning-tree
         candidates of [Measure.Paths] (tree monitor paths plus
         tree–chord–tree detours), which reach far higher rank than the
         stall-bounded random search alone — this is what gives partial
         placements a real lower bound instead of one near zero. *)
      let gp = Graph.of_edges (Graph.EdgeSet.elements measurable) in
      let mode = ref Structural in
      let escalate m =
        match (!mode, m) with
        | Structural, _ -> mode := m
        | Exact, Sampled -> mode := Sampled
        | _ -> ()
      in
      let verdicts = ref verdicts in
      let unresolved e =
        verdicts :=
          Graph.EdgeMap.add e { identifiable = false; reason = Unresolved }
            !verdicts
      in
      Obs.Trace.span "coverage.rank_fallback" @@ fun () ->
      List.iter
        (fun nodes ->
          let gc = Graph.induced gp nodes in
          let mine = Graph.EdgeSet.inter (Graph.edge_set gc) undecided in
          if not (Graph.EdgeSet.is_empty mine) then begin
            let monitors =
              List.filter (Graph.mem_node gc) (Net.monitor_list net)
            in
            let nc = Graph.n_nodes gc in
            if nc > rank_node_limit || List.length monitors < 2 then begin
              escalate Sampled;
              Graph.EdgeSet.iter unresolved mine
            end
            else begin
              let netc = Net.create gc ~monitors in
              let sampled () =
                escalate Sampled;
                (* On components beyond the exact-enumeration range the
                   structured spanning-tree seeds already reach
                   near-maximal membership, so the random layer only
                   runs on components of at most 150 links. Past that
                   its price would be the stall budget, up to
                   50·(nodes+1) random paths through the float
                   prefilter per productive row, more than the exact
                   elimination itself: a confirmed row costs about
                   6 µs at rank 300–400 on the 300–390-link components
                   of the coverage bench's ISP maps (2-vCPU Xeon). The
                   cutoff stays because lifting it would change
                   answers. *)
                let max_stall =
                  if Graph.n_edges gc > 150 then 0 else 50 * (nc + 1)
                in
                snd
                  (Solver.independent_paths_with_basis
                     ~rng:(Prng.create seed) ~max_stall
                     ~seeds:Nettomo_measure.Paths.simple_candidates netc)
              in
              let basis =
                if nc > exact_node_limit then sampled ()
                else begin
                  escalate Exact;
                  (* A dense component can hold more simple paths than
                     the enumeration limit (K11 between two monitors
                     has ~10^6): degrade it to the sampled lower bound
                     instead of failing the whole report. *)
                  try Identifiability.measurement_basis netc
                  with Paths.Limit_exceeded -> sampled ()
                end
              in
              let space = Measurement.space gc in
              Graph.EdgeSet.iter
                (fun e ->
                  verdicts :=
                    Graph.EdgeMap.add e
                      {
                        identifiable = Basis.mem_unit basis (Measurement.column space e);
                        reason = Rank;
                      }
                      !verdicts)
                mine
            end
          end)
        (Traversal.components gp);
      finish !mode !verdicts
    end
  end

let coverage r =
  let total = Graph.EdgeMap.cardinal r.verdicts in
  if total = 0 then 1.0
  else float_of_int (Graph.EdgeSet.cardinal r.identifiable) /. float_of_int total

let identifiable_subnet r = Graph.of_edges (Graph.EdgeSet.elements r.identifiable)

let reason_to_string = function
  | Whole_network -> "whole_network"
  | Monitor_link -> "monitor_link"
  | Low_degree -> "low_degree"
  | Unmeasurable -> "unmeasurable"
  | Block_theorem -> "block_theorem"
  | Block_rank -> "block_rank"
  | Rank -> "rank"
  | Unresolved -> "unresolved"

let mode_to_string = function
  | Structural -> "structural"
  | Exact -> "exact"
  | Sampled -> "sampled"

let pp ppf r =
  Format.fprintf ppf
    "@[<v>%s coverage: %d identifiable / %d links (%.0f%%)@]"
    (mode_to_string r.mode)
    (Graph.EdgeSet.cardinal r.identifiable)
    (Graph.EdgeMap.cardinal r.verdicts)
    (100.0 *. coverage r)

(* ------------------------------------------------------------------ *)
(* Greedy monitor augmentation. *)

type plan = {
  requested : int;
  added : Graph.node list;
  coverage_before : float;
  coverage_after : float;
  full : bool;
}

(* Links not condemned by the sound structural rejects (low degree,
   unmeasurable) under a candidate monitor set — the planner's marginal
   coverage score. An over-approximation of the identifiable set, but
   its increments are exactly the links a candidate can free. *)
let structural_ok g t mset =
  let is_mon v = Graph.NodeSet.mem v mset in
  let terminals = terminals_of t is_mon in
  let relevant = relevant_blocks t terminals in
  let count = ref 0 in
  Array.iteri
    (fun bi (b : Biconnected.component) ->
      if relevant.(bi) then
        Graph.EdgeSet.iter
          (fun (u, v) ->
            if
              (is_mon u || Graph.degree g u >= 3)
              && (is_mon v || Graph.degree g v >= 3)
            then incr count)
          b.edges)
    t.blocks;
  !count

(* How far a monitor set is from satisfying MMP's rule set (Theorem
   7.1): degree < 3 nodes not yet monitors (rules i-ii), vantage
   shortfalls per triconnected / biconnected component (rules iii-iv),
   and the kappa >= 3 floor. Zero deficiency is the planner's signal
   that the exact full-identifiability test is worth running. *)
type deficiency_tables = {
  low_nodes : Graph.NodeSet.t;  (* degree 1 or 2, links at stake *)
  tri_comps : (int * Graph.NodeSet.t) list;
      (* (fixed vantage, free nodes) per triconnected component *)
  bic_comps : (int * Graph.NodeSet.t) list;  (* idem, biconnected *)
  kappa_floor : int;
}

let deficiency_tables g =
  let tri = Triconnected.decompose g in
  let low_nodes =
    Graph.fold_nodes
      (fun v acc ->
        let d = Graph.degree g v in
        if d >= 1 && d < 3 then Graph.NodeSet.add v acc else acc)
      g Graph.NodeSet.empty
  in
  let comp_entry vantage (nodes : Graph.NodeSet.t) =
    let fixed = Graph.NodeSet.cardinal (Graph.NodeSet.inter nodes vantage) in
    (fixed, Graph.NodeSet.diff nodes vantage)
  in
  let tri_comps =
    List.concat_map
      (fun ((_ : Biconnected.component), comps) ->
        List.filter_map
          (fun (c : Triconnected.component) ->
            if Graph.NodeSet.cardinal c.nodes >= 3 then
              Some (comp_entry tri.Triconnected.separation_vertices c.nodes)
            else None)
          comps)
      tri.Triconnected.blocks
  in
  let bic_comps =
    List.filter_map
      (fun ((b : Biconnected.component), _) ->
        if Graph.NodeSet.cardinal b.nodes >= 3 then
          Some (comp_entry tri.Triconnected.cut_vertices b.nodes)
        else None)
      tri.Triconnected.blocks
  in
  { low_nodes; tri_comps; bic_comps; kappa_floor = min 3 (Graph.n_nodes g) }

let deficiency tables mset =
  let comp_term (fixed, free) =
    max 0 (3 - fixed - Graph.NodeSet.cardinal (Graph.NodeSet.inter free mset))
  in
  Graph.NodeSet.cardinal (Graph.NodeSet.diff tables.low_nodes mset)
  + List.fold_left (fun acc c -> acc + comp_term c) 0 tables.tri_comps
  + List.fold_left (fun acc c -> acc + comp_term c) 0 tables.bic_comps
  + max 0 (tables.kappa_floor - Graph.NodeSet.cardinal mset)

let augment ?(seed = 0) ~k net =
  if k < 0 then Errors.invalid_arg "Coverage.augment: k must be non-negative";
  Obs.Trace.span "coverage.augment" @@ fun () ->
  let g = Net.graph net in
  let t = blocktree g in
  let tables = deficiency_tables g in
  let comps =
    List.filter_map
      (fun c ->
        let cg = Graph.induced g c in
        if Graph.n_edges cg = 0 then None else Some (c, cg))
      (Traversal.components g)
  in
  let m_total = Graph.n_edges g in
  let cov_of mset =
    let n = Net.with_monitors net (Graph.NodeSet.elements mset) in
    if Net.kappa n < 2 then 0.0
    else coverage (classify ~seed n)
  in
  (* Exact full-coverage test: cheap necessary screens first, then the
     paper's Theorem 3.1/3.3 verdict per connected component. *)
  let full mset =
    Graph.NodeSet.subset tables.low_nodes mset
    && m_total = structural_ok g t mset
    && List.for_all
         (fun (c, cg) ->
           Identifiability.network_identifiable
             (Net.create cg
                ~monitors:
                  (Graph.NodeSet.elements (Graph.NodeSet.inter c mset))))
         comps
  in
  let nodes = Graph.nodes g in
  let mset = ref (Net.monitors net) in
  let added = ref [] in
  let coverage_before = cov_of !mset in
  let fully = ref (full !mset) in
  let steps = ref 0 in
  while !steps < k && not !fully do
    incr steps;
    let better (a1, a2, a3) (b1, b2, b3) =
      a1 > b1 || (a1 = b1 && (a2 > b2 || (a2 = b2 && a3 > b3)))
    in
    let best = ref None in
    List.iter
      (fun c ->
        if not (Graph.NodeSet.mem c !mset) then begin
          let m' = Graph.NodeSet.add c !mset in
          let d = Graph.degree g c in
          let score =
            ( structural_ok g t m',
              -deficiency tables m',
              if d >= 1 && d < 3 then 1 else 0 )
          in
          match !best with
          | Some (_, bscore) when not (better score bscore) -> ()
          | Some _ | None -> best := Some (c, score)
        end)
      nodes;
    match !best with
    | None -> steps := k (* every node is already a monitor *)
    | Some (c, _) ->
        mset := Graph.NodeSet.add c !mset;
        added := c :: !added;
        fully := full !mset
  done;
  let coverage_after = cov_of !mset in
  {
    requested = k;
    added = List.rev !added;
    coverage_before;
    coverage_after;
    full = !fully;
  }

let pp_plan ppf p =
  Format.fprintf ppf
    "@[<h>augment k=%d: +%d monitors [%a], coverage %.3f -> %.3f%s@]"
    p.requested
    (List.length p.added)
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "; ")
       Format.pp_print_int)
    p.added p.coverage_before p.coverage_after
    (if p.full then " (full)" else "")
