module Errors = Nettomo_util.Errors
module Prng = Nettomo_util.Prng
module Obs = Nettomo_obs.Obs
open Nettomo_graph
module Net = Nettomo_core.Net
module Identifiability = Nettomo_core.Identifiability
module Solver = Nettomo_core.Solver
module Basis = Nettomo_linalg.Basis
module Zbasis = Nettomo_linalg.Zbasis

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
(* Block-cut tree on the flat graph: which blocks carry monitor-to-
   monitor paths, and through which terminals. *)

type tree = {
  csr : Csr.t;
  flat : Biconnected.flat;
  links : int array array;  (* block -> its link numbers, ascending *)
  nodes : int array array;  (* block -> its node indices, head first *)
}

let tree csr =
  let flat = Biconnected.decompose_flat csr in
  let { Biconnected.links; nodes } = Biconnected.members csr flat in
  { csr; flat; links; nodes }

(* Terminals of every block under the monitor flags [mon]: the block's
   non-cut monitors plus each of its cut vertices that is a monitor or
   has a monitor strictly beyond it (away from the block). A block lies
   on a measurement path iff it has >= 2 terminals, and then its
   measurement paths enter and leave exactly at terminal pairs.

   The search roots the block-cut tree: a block's head is its one node
   on the root side, and blocks are closed bottom-up. So one pass in
   closing order counts, for each block, the monitors in it and below
   it, its head excluded, and for each node the monitors in the blocks
   it heads. A non-head node has monitors beyond it iff the blocks it
   heads hold one (a non-cut node heads none); the head has them iff
   its connected component holds one outside the block's side and
   other than itself. *)
let terminals t mon =
  let flag x = if mon.(x) then 1 else 0 in
  let below = Array.make t.csr.n 0 in
  let side =
    Array.map
      (fun ns ->
        let s = ref 0 in
        for i = 1 to Array.length ns - 1 do
          s := !s + flag ns.(i) + below.(ns.(i))
        done;
        below.(ns.(0)) <- below.(ns.(0)) + !s;
        !s)
      t.nodes
  in
  let total = Array.make t.flat.n_components 0 in
  Array.iteri
    (fun x c -> total.(c) <- total.(c) + flag x)
    t.flat.component;
  Array.mapi
    (fun b ns ->
      let h = ns.(0) in
      let keep = ref [] in
      for i = Array.length ns - 1 downto 1 do
        let x = ns.(i) in
        if mon.(x) || below.(x) > 0 then keep := x :: !keep
      done;
      Array.of_list
        (if mon.(h) || total.(t.flat.component.(h)) - side.(b) - flag h > 0 then h :: !keep
         else !keep))
    t.nodes

let degree (c : Csr.t) i = c.xadj.(i + 1) - c.xadj.(i)

(* ------------------------------------------------------------------ *)

(* Past this many nodes a component's surviving links are [Unresolved];
   see the rank fallback below. *)
let rank_node_limit = 160

let classify ?(seed = 0) ?(exact_node_limit = 12) net =
  if Net.kappa net < 2 then
    Errors.invalid_arg "Coverage.classify: need at least two monitors";
  Obs.Trace.span "coverage.classify" @@ fun () ->
  let c = Csr.of_graph (Net.graph net) in
  (* One verdict per link number, [None] while undecided. The report's
     maps and sets are built once, at the end. *)
  let verdicts = Array.make c.m None in
  let finish mode =
    let vs = ref Graph.EdgeMap.empty and yes = ref [] and no = ref [] in
    for k = c.m - 1 downto 0 do
      let (v : verdict) = Option.get verdicts.(k) and e = Csr.edge c k in
      vs := Graph.EdgeMap.add e v !vs;
      if v.identifiable then yes := e :: !yes else no := e :: !no
    done;
    (* Link numbers are lexicographic, so both lists ascend. *)
    {
      mode;
      verdicts = !vs;
      identifiable = Graph.EdgeSet.of_list !yes;
      unidentifiable = Graph.EdgeSet.of_list !no;
    }
  in
  if c.m = 0 then finish Structural
  else
    let t = tree c in
    let mon = Array.map (Net.is_monitor net) c.ids in
    let low_degree x = (not mon.(x)) && degree c x < 3 in
    (* Theorems 3.1 and 3.3 on the whole network, on the flat graph: one
       component proves it connected, and the flat test takes κ from
       [mon]. *)
    let whole_network =
      t.flat.n_components = 1 && Identifiability.identifiable_flat c ~monitor:mon
    in
    if whole_network then begin
      Array.fill verdicts 0 c.m (Some { identifiable = true; reason = Whole_network });
      finish Structural
    end
    else begin
      let term = terminals t mon in
      let relevant = Array.map (fun ts -> Array.length ts >= 2) term in
      let measurable k = relevant.(t.flat.block_of_link.(k)) in
      let undecided = ref 0 in
      let decide k identifiable reason =
        verdicts.(k) <- Some { identifiable; reason };
        decr undecided
      in
      (* First structural pass over every link. *)
      for k = 0 to c.m - 1 do
        let u, v = Csr.endpoints c k in
        if mon.(u) && mon.(v) then
          verdicts.(k) <- Some { identifiable = true; reason = Monitor_link }
        else if low_degree u || low_degree v then
          verdicts.(k) <- Some { identifiable = false; reason = Low_degree }
        else if not (measurable k) then
          verdicts.(k) <- Some { identifiable = false; reason = Unmeasurable }
        else incr undecided
      done;
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
         enough to enumerate. The theorem runs on the block's flat
         restriction with its terminals flagged; only a block the exact
         rank examines is built as a graph, and its ascending links make
         its j-th link column j of its measurement space. A single-link
         block is skipped: its link spans its own block space, and when
         both its ends are monitors the first pass has decided it. *)
      let is_term = Array.make c.n false in
      let block_theorem b ls =
        let sub = Csr.restrict c ls in
        Array.iter (fun x -> is_term.(x) <- true) term.(b);
        let monitor = Array.map (fun v -> is_term.(Csr.index c v)) sub.ids in
        Array.iter (fun x -> is_term.(x) <- false) term.(b);
        Identifiability.identifiable_flat sub ~monitor
      in
      Array.iteri
        (fun b ls ->
          if
            relevant.(b)
            && Array.length ls > 1
            && Array.exists (fun k -> Option.is_none verdicts.(k)) ls
          then begin
            let monitor_terminals = Array.for_all (fun x -> mon.(x)) term.(b) in
            let small = Array.length t.nodes.(b) <= exact_node_limit in
            if monitor_terminals && block_theorem b ls then
              Array.iter
                (fun k -> if Option.is_none verdicts.(k) then decide k true Block_theorem)
                ls
            else if small then begin
              let bnet =
                Net.create
                  (Graph.of_edges (Array.to_list (Array.map (Csr.edge c) ls)))
                  ~monitors:(Array.to_list (Array.map (fun x -> c.ids.(x)) term.(b)))
              in
              match Identifiability.measurement_basis bnet with
              | exception Paths.Limit_exceeded ->
                  (* Too many block paths to enumerate — leave the
                     links to the global fallback. *)
                  ()
              | basis ->
                  Array.iteri
                    (fun j k ->
                      if Option.is_none verdicts.(k) then begin
                        let inside = Basis.mem_unit basis j in
                        if monitor_terminals then decide k inside Block_rank
                        else if not inside then decide k false Block_rank
                      end)
                    ls
            end
          end)
        t.links;
      if !undecided = 0 then finish Structural
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
           component: per root (up to 8) a tree row per monitor and up to
           6 detours per link (3 per orientation), less the ones the
           generator proves dependent, each reduced once against the
           exact basis; one shortest-path row per monitor pair whose
           first monitor is not a seed root; and one accepted row per
           unit of rank, which rewrites the stored rows listed at its
           pivot (the basis pivots where the fewest are listed), each
           rewrite up to the component's link count long. Lifting it
           changes answers.
           Within the bound, the
           sampled layer is seeded with the constructive spanning-tree
           candidates of [Measure.Paths] (tree monitor paths plus
           tree–chord–tree detours), which reach far higher rank than the
           stall-bounded random search alone — this is what gives partial
           placements a real lower bound instead of one near zero.

           A component is found by a breadth-first search over
           measurable links from an undecided one, and handed to the
           solver as the restriction of [c] to its ascending links
           ([Csr.restrict]), so its j-th link is column j; no persistent
           graph is built unless the search's random layer runs or the
           component is small enough for exact rank. *)
        let mode = ref Structural in
        let escalate m =
          match (!mode, m) with
          | Structural, _ -> mode := m
          | Exact, Sampled -> mode := Sampled
          | _ -> ()
        in
        Obs.Trace.span "coverage.rank_fallback" @@ fun () ->
        let reached = Array.make c.n false and queue = Array.make c.n 0 in
        for k0 = 0 to c.m - 1 do
          if Option.is_none verdicts.(k0) then begin
            let root = fst (Csr.endpoints c k0) in
            reached.(root) <- true;
            queue.(0) <- root;
            let head = ref 0 and tail = ref 1 and mine = ref [] in
            while !head < !tail do
              let u = queue.(!head) in
              incr head;
              for q = c.xadj.(u) to c.xadj.(u + 1) - 1 do
                let k = c.eid.(q) and v = c.adj.(q) in
                if measurable k then begin
                  if not reached.(v) then begin
                    reached.(v) <- true;
                    queue.(!tail) <- v;
                    incr tail
                  end;
                  if u < v then mine := k :: !mine
                end
              done
            done;
            let links = Array.of_list !mine in
            Array.sort Int.compare links;
            let monitors = ref [] in
            for i = !tail - 1 downto 0 do
              let x = queue.(i) in
              if mon.(x) then monitors := c.ids.(x) :: !monitors
            done;
            let nc = !tail in
            if nc > rank_node_limit || List.length !monitors < 2 then begin
              escalate Sampled;
              Array.iter
                (fun k -> if Option.is_none verdicts.(k) then decide k false Unresolved)
                links
            end
            else begin
              let graph () = Graph.of_edges (Array.to_list (Array.map (Csr.edge c) links)) in
              let sub = Csr.restrict c links in
              Nettomo_util.Invariant.check (fun () -> Csr.Invariant.check (graph ()) sub);
              let smon = Array.map (fun v -> mon.(Csr.index c v)) sub.ids in
              let sampled () =
                escalate Sampled;
                (* On components beyond the exact-enumeration range the
                   structured spanning-tree seeds already reach
                   near-maximal membership, so the random layer only
                   runs on components of at most 150 links. Past that
                   its price would be the stall budget, up to
                   50·(nodes+1) random paths reduced against the basis
                   per productive row. The cutoff stays because lifting
                   it would change answers. *)
                let max_stall =
                  if Array.length links > 150 then 0 else 50 * (nc + 1)
                in
                Zbasis.mem_unit
                  (Solver.basis ~rng:(Prng.create seed) ~max_stall
                     ~seeds:Nettomo_measure.Paths.simple_candidates sub ~monitor:smon)
              in
              let mem_unit =
                if nc > exact_node_limit then sampled ()
                else begin
                  escalate Exact;
                  (* A dense component can hold more simple paths than
                     the enumeration limit (K11 between two monitors
                     has ~10^6): degrade it to the sampled lower bound
                     instead of failing the whole report. *)
                  match
                    Identifiability.measurement_basis (Net.create (graph ()) ~monitors:!monitors)
                  with
                  | basis -> Basis.mem_unit basis
                  | exception Paths.Limit_exceeded -> sampled ()
                end
              in
              Array.iteri
                (fun j k -> if Option.is_none verdicts.(k) then decide k (mem_unit j) Rank)
                links
            end
          end
        done;
        finish !mode
      end
    end

let coverage r =
  let total = Graph.EdgeMap.cardinal r.verdicts in
  if total = 0 then 1.0
  else float_of_int (Graph.EdgeSet.cardinal r.identifiable) /. float_of_int total

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
   unmeasurable) under the monitor flags [mon] — the planner's marginal
   coverage score. An over-approximation of the identifiable set, but
   its increments are exactly the links a candidate can free. *)
let structural_ok t mon =
  let term = terminals t mon in
  let ok x = mon.(x) || degree t.csr x >= 3 in
  let count = ref 0 in
  Array.iteri
    (fun b ls ->
      if Array.length term.(b) >= 2 then
        Array.iter
          (fun k ->
            let u, v = Csr.endpoints t.csr k in
            if ok u && ok v then incr count)
          ls)
    t.links;
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
  let t = tree (Csr.of_graph g) in
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
  (* The current monitor set, also as flags by node index. *)
  let mset = ref (Net.monitors net) in
  let mon = Array.map (Net.is_monitor net) t.csr.ids in
  (* Exact full-coverage test: cheap necessary screens first, then the
     paper's Theorem 3.1/3.3 verdict per connected component. *)
  let full () =
    Graph.NodeSet.subset tables.low_nodes !mset
    && m_total = structural_ok t mon
    && List.for_all
         (fun (c, cg) ->
           Identifiability.network_identifiable
             (Net.create cg
                ~monitors:
                  (Graph.NodeSet.elements (Graph.NodeSet.inter c !mset))))
         comps
  in
  let added = ref [] in
  let coverage_before = cov_of !mset in
  let fully = ref (full ()) in
  let steps = ref 0 in
  while !steps < k && not !fully do
    incr steps;
    let better ((a1 : int), (a2 : int), (a3 : int)) (b1, b2, b3) =
      a1 > b1 || (a1 = b1 && (a2 > b2 || (a2 = b2 && a3 > b3)))
    in
    let best = ref None in
    (* Candidates in increasing identifier order, so ties go to the
       smallest. *)
    Array.iteri
      (fun i c ->
        if not mon.(i) then begin
          mon.(i) <- true;
          let ok = structural_ok t mon in
          mon.(i) <- false;
          let d = degree t.csr i in
          let score =
            ( ok,
              -deficiency tables (Graph.NodeSet.add c !mset),
              if d >= 1 && d < 3 then 1 else 0 )
          in
          match !best with
          | Some (_, _, bscore) when not (better score bscore) -> ()
          | Some _ | None -> best := Some (i, c, score)
        end)
      t.csr.ids;
    match !best with
    | None -> steps := k (* every node is already a monitor *)
    | Some (i, c, _) ->
        mset := Graph.NodeSet.add c !mset;
        mon.(i) <- true;
        added := c :: !added;
        fully := full ()
  done;
  let coverage_after = cov_of !mset in
  {
    requested = k;
    added = List.rev !added;
    coverage_before;
    coverage_after;
    full = !fully;
  }

module Internal = struct
  let structural_score net =
    let t = tree (Csr.of_graph (Net.graph net)) in
    structural_ok t (Array.map (Net.is_monitor net) t.csr.ids)
end

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
