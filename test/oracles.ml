(* Reference implementations the fast paths are tested against. *)

open Nettomo_core
module Basis = Nettomo_linalg.Basis
module Bigint = Nettomo_linalg.Bigint
module Rational = Nettomo_linalg.Rational

(* A basis rebuilt from a finished plan: every plan row added, in
   order, to an empty basis. The reference for the basis the solver's
   search hands out. *)
let basis_of_plan space (plan : Solver.plan) =
  let basis = Basis.create (Measurement.n_links space) in
  List.iter
    (fun p -> ignore (Basis.add basis (Measurement.incidence_row space p)))
    plan.Solver.paths;
  basis

(* Which links' unit vectors lie in the span, in link-column order. *)
let unit_membership space basis =
  let n = Measurement.n_links space in
  List.init n (fun j ->
      let unit = Array.make n Rational.zero in
      unit.(j) <- Rational.one;
      Basis.mem basis unit)

(* The coverage fallback's spanning-tree seeds as node lists, the way
   they were generated before the search moved onto link numbers: per
   root (the first 8 monitors), the tree paths to every other monitor,
   then per link orientation (u,v) up to 3 node-simple detours
   r → u, (u,v), v → b. The reference for [Measure.Paths.simple_candidates],
   whose rows must be these paths' link columns, in the same order, less
   rows that lie in the span of the ones it emitted before them from
   the same root. *)
let simple_candidates net =
  let open Nettomo_graph in
  let csr = Csr.of_graph (Net.graph net) in
  let monitors = List.map (Csr.index csr) (Net.monitor_list net) in
  let roots = List.filteri (fun i _ -> i < 8) monitors in
  let to_ids ixs = List.map (fun ix -> csr.Csr.ids.(ix)) ixs in
  let on_stem = Array.make csr.Csr.n (-1) and stamp = ref 0 in
  let acc = ref [] in
  List.iter
    (fun r ->
      let { Csr.parent; depth; _ } = Csr.bfs csr r in
      let lca a b =
        let a = ref a and b = ref b in
        while depth.(!a) > depth.(!b) do
          a := parent.(!a)
        done;
        while depth.(!b) > depth.(!a) do
          b := parent.(!b)
        done;
        while !a <> !b do
          a := parent.(!a);
          b := parent.(!b)
        done;
        !a
      in
      let climb a stop =
        let rec go x acc = if x = stop then List.rev (x :: acc) else go parent.(x) (x :: acc) in
        go a []
      in
      let tree_path a b =
        let anc = lca a b in
        climb a anc @ List.tl (List.rev (climb b anc))
      in
      List.iter
        (fun b -> if b <> r && depth.(b) >= 0 then acc := to_ids (tree_path r b) :: !acc)
        monitors;
      for k = 0 to csr.Csr.m - 1 do
        let iu, iv = Csr.endpoints csr k in
        if depth.(iu) >= 0 && depth.(iv) >= 0 then
          List.iter
            (fun (u, v) ->
              if parent.(u) <> v && parent.(v) <> u then begin
                let stem = List.rev (climb u r) in
                incr stamp;
                List.iter (fun x -> on_stem.(x) <- !stamp) stem;
                let emitted = ref 0 in
                List.iter
                  (fun b ->
                    if !emitted < 3 && b <> r && depth.(b) >= 0 then begin
                      let tail = tree_path v b in
                      if List.for_all (fun x -> on_stem.(x) <> !stamp) tail then begin
                        acc := to_ids (stem @ tail) :: !acc;
                        incr emitted
                      end
                    end)
                  monitors
              end)
            [ (iu, iv); (iv, iu) ]
      done)
    roots;
  List.rev !acc

(* Rational arithmetic with every value a normalized Bigint pair and
   every operation through Bigint: the reference for the small/big
   representation. *)
module Qref = struct
  type t = { num : Bigint.t; den : Bigint.t }

  let make num den =
    if Bigint.is_zero den then raise Division_by_zero;
    if Bigint.is_zero num then { num = Bigint.zero; den = Bigint.one }
    else begin
      let num, den =
        if Bigint.sign den < 0 then (Bigint.neg num, Bigint.neg den)
        else (num, den)
      in
      let g = Bigint.gcd num den in
      { num = Bigint.div num g; den = Bigint.div den g }
    end

  let compare a b =
    Bigint.compare (Bigint.mul a.num b.den) (Bigint.mul b.num a.den)

  let equal a b = Bigint.equal a.num b.num && Bigint.equal a.den b.den
  let neg t = { t with num = Bigint.neg t.num }

  let add a b =
    make
      (Bigint.add (Bigint.mul a.num b.den) (Bigint.mul b.num a.den))
      (Bigint.mul a.den b.den)

  let sub a b = add a (neg b)
  let mul a b = make (Bigint.mul a.num b.num) (Bigint.mul a.den b.den)

  let inv t =
    if Bigint.is_zero t.num then raise Division_by_zero;
    make t.den t.num

  let to_float t = Bigint.to_float t.num /. Bigint.to_float t.den

  let to_string t =
    if Bigint.equal t.den Bigint.one then Bigint.to_string t.num
    else Bigint.to_string t.num ^ "/" ^ Bigint.to_string t.den

  (* The fast value agrees with the reference one: same numerator and
     denominator. *)
  let agrees q r =
    Bigint.equal (Rational.num q) r.num && Bigint.equal (Rational.den q) r.den
end

(* The exact basis on dense rows: rows kept as full-width rational
   arrays in a list sorted by pivot, and elimination walking that list,
   each applied row scanned across every column after its pivot. The
   reference for the sparse-row basis, which must store the same rows
   and give the same residuals and answers. *)
module Basis_ref = struct
  module Q = Rational

  type t = { n : int; mutable rows : (int * Q.t array) list; mutable rank : int }

  let create n = { n; rows = []; rank = 0 }
  let rank t = t.rank

  let eliminate t v rows =
    List.iter
      (fun (p, r) ->
        if not (Q.is_zero v.(p)) then begin
          let factor = v.(p) in
          for j = p to t.n - 1 do
            let rj = r.(j) in
            if not (Q.is_zero rj) then v.(j) <- Q.sub v.(j) (Q.mul factor rj)
          done
        end)
      rows

  let reduce t v =
    let v = Array.copy v in
    eliminate t v t.rows;
    v

  let first_nonzero v =
    let n = Array.length v in
    let rec loop j = if j >= n then None else if Q.is_zero v.(j) then loop (j + 1) else Some j in
    loop 0

  let mem t v = first_nonzero (reduce t v) = None

  let mem_unit t j =
    let rec from = function
      | [] -> false
      | (p, _) :: rest when p < j -> from rest
      | (p, r) :: later when p = j ->
          let v = Array.copy r in
          v.(j) <- Q.zero;
          eliminate t v later;
          first_nonzero v = None
      | _ :: _ -> false
    in
    from t.rows

  let add t v =
    let res = reduce t v in
    match first_nonzero res with
    | None -> false
    | Some p ->
        let inv = Q.inv res.(p) in
        for j = p to t.n - 1 do
          if not (Q.is_zero res.(j)) then res.(j) <- Q.mul res.(j) inv
        done;
        let rec insert = function
          | [] -> [ (p, res) ]
          | (p', _) :: _ as rest when p < p' -> (p, res) :: rest
          | x :: rest -> x :: insert rest
        in
        t.rows <- insert t.rows;
        t.rank <- t.rank + 1;
        true

  let copy t = { t with rows = List.map (fun (p, r) -> (p, Array.copy r)) t.rows }
end

(* The coverage classifier on the persistent graph, as it was before
   it moved onto the flat graph: the block-cut tree from the Set-based
   decomposition, terminals, relevance and measurability as node and
   link sets, the pruned components as induced subgraphs with their
   own measurement spaces. The reference for [Coverage.classify] and
   for [augment]'s structural score, which must give the same answers
   link for link. *)
module Coverage_ref = struct
  open Nettomo_graph
  open Nettomo_coverage.Coverage
  module Errors = Nettomo_util.Errors
  module Prng = Nettomo_util.Prng
  module Measurement = Nettomo_core.Measurement

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


  let classify ?(seed = 0) ?(exact_node_limit = 12) net =
    let rank_node_limit = 160 in
    if Net.kappa net < 2 then
      Errors.invalid_arg "Coverage.classify: need at least two monitors";
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
           orientation), each reduced once against the exact basis, and
           one accepted row per unit of rank, whose update of the basis
           grows with the component's links and rank. Lifting it changes
           answers. Within the bound, the
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
                     50·(nodes+1) random paths reduced against the
                     basis per productive row. The cutoff stays because
                     lifting it would change answers. *)
                  let max_stall =
                    if Graph.n_edges gc > 150 then 0 else 50 * (nc + 1)
                  in
                  Nettomo_linalg.Zbasis.mem_unit
                    (Fixtures.solver_basis ~rng:(Prng.create seed) ~max_stall
                       ~seeds:Nettomo_measure.Paths.simple_candidates netc)
                in
                let mem_unit =
                  if nc > exact_node_limit then sampled ()
                  else begin
                    escalate Exact;
                    (* A dense component can hold more simple paths than
                       the enumeration limit (K11 between two monitors
                       has ~10^6): degrade it to the sampled lower bound
                       instead of failing the whole report. *)
                    match Identifiability.measurement_basis netc with
                    | basis -> Basis.mem_unit basis
                    | exception Paths.Limit_exceeded -> sampled ()
                  end
                in
                let space = Measurement.space gc in
                Graph.EdgeSet.iter
                  (fun e ->
                    verdicts :=
                      Graph.EdgeMap.add e
                        {
                          identifiable = mem_unit (Measurement.column space e);
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
end

(* The triconnected split as it ran before each block's separation
   pairs were listed once: at every step the pair sweep runs again on
   the part it is given and stops at the first pair it finds. The
   reference for [Triconnected.split_biconnected], whose components
   must be these, in this order. *)
module Split_ref = struct
  open Nettomo_graph
  module NS = Graph.NodeSet
  module ES = Graph.EdgeSet

  (* The sweep of [Separation.cut_pairs] with an early exit: v
     ascending, then u ascending, so the first pair found is the
     lexicographically smallest one, or [None]. *)
  let first_cut_pair g =
    let c = Csr.of_graph g in
    let n = c.Csr.n in
    let found = ref None in
    if n >= 4 then begin
      let is_cut, search = Biconnected.Internal.cut_vertices_without c in
      ignore (search (-1));
      let is_cut0 = Array.copy is_cut in
      let v = ref 0 in
      while Option.is_none !found && !v < n do
        if (not is_cut0.(!v)) && search !v <= 1 then begin
          let u = ref 0 in
          while Option.is_none !found && !u < n do
            if is_cut.(!u) && not is_cut0.(!u) then
              found := Some (Graph.edge c.Csr.ids.(!v) c.Csr.ids.(!u));
            incr u
          done
        end;
        incr v
      done
    end;
    !found

  let component_of ~virtuals g =
    {
      Triconnected.nodes = Graph.node_set g;
      edges = Graph.edge_set g;
      virtuals = ES.inter virtuals (Graph.edge_set g);
    }

  let is_polygon g =
    Graph.n_nodes g >= 3
    && Graph.fold_nodes (fun v acc -> acc && Graph.degree g v = 2) g true

  (* For a biconnected graph of 3 nodes or more. *)
  let split_biconnected g0 =
    let rec split g virtuals =
      if Graph.n_nodes g <= 3 || is_polygon g then [ component_of ~virtuals g ]
      else
        match first_cut_pair g with
        | None -> [ component_of ~virtuals g ]
        | Some (a, b) ->
            let virtuals =
              if Graph.mem_edge g a b then virtuals
              else ES.add (Graph.edge a b) virtuals
            in
            let g = Graph.add_edge g a b in
            let avoid_nodes = NS.of_list [ a; b ] in
            let parts = Traversal.components ~avoid_nodes g in
            List.concat_map
              (fun part ->
                let keep = NS.add a (NS.add b part) in
                split (Graph.induced g keep) virtuals)
              parts
    in
    split g0 ES.empty
end

(* MMP as it ran over the persistent decomposition, before the
   placement moved onto the flat block-cut structure: the rules read
   [Triconnected.decompose]'s blocks and components as node sets. The
   reference for [Mmp.place_report], whose report must be this one,
   field for field, with the same generator draws. *)
module Mmp_ref = struct
  open Nettomo_graph
  module NS = Graph.NodeSet
  module Prng = Nettomo_util.Prng

  let pick ?rng k pool =
    let elems = NS.elements pool in
    if k >= List.length elems then elems
    else
      match rng with
      | None -> List.filteri (fun i _ -> i < k) elems
      | Some rng -> Array.to_list (Prng.sample rng k (Array.of_list elems))

  let place_report ?rng g =
    if Graph.is_empty g then invalid_arg "Mmp.place: empty graph";
    if not (Traversal.is_connected g) then
      invalid_arg "Mmp.place: disconnected graph";
    let decomposition = Triconnected.decompose g in
    let by_degree =
      Graph.fold_nodes
        (fun v acc -> if Graph.degree g v < 3 then NS.add v acc else acc)
        g NS.empty
    in
    let monitors = ref by_degree in
    let by_triconnected = ref NS.empty and by_biconnected = ref NS.empty in
    (* A component with [fixed] nodes that are separation (or cut)
       vertices gets monitors until it has 3 fixed nodes or monitors. *)
    let need added nodes fixed =
      let s = NS.cardinal (NS.inter nodes fixed) in
      let m = NS.cardinal (NS.inter nodes !monitors) in
      if 0 < s && s < 3 && s + m < 3 then
        List.iter
          (fun v ->
            monitors := NS.add v !monitors;
            added := NS.add v !added)
          (pick ?rng (3 - s - m) (NS.diff (NS.diff nodes fixed) !monitors))
    in
    List.iter
      (fun ((block : Biconnected.component), tricomps) ->
        if NS.cardinal block.nodes >= 3 then begin
          List.iter
            (fun (t : Triconnected.component) ->
              if NS.cardinal t.nodes >= 3 then
                need by_triconnected t.nodes
                  decomposition.Triconnected.separation_vertices)
            tricomps;
          need by_biconnected block.nodes decomposition.Triconnected.cut_vertices
        end)
      decomposition.Triconnected.blocks;
    let top_up = ref NS.empty in
    let missing = 3 - NS.cardinal !monitors in
    if missing > 0 then
      List.iter
        (fun v ->
          monitors := NS.add v !monitors;
          top_up := NS.add v !top_up)
        (pick ?rng missing (NS.diff (Graph.node_set g) !monitors));
    {
      Mmp.monitors = !monitors;
      by_degree;
      by_triconnected = !by_triconnected;
      by_biconnected = !by_biconnected;
      top_up = !top_up;
    }
end

(* 3-vertex-connectivity by the sweep that decided it before the path
   search: at least 4 nodes, and G - v connected and free of cut
   vertices for every node v, one lowpoint search per v. The reference
   for [Separation.is_three_vertex_connected]. *)
module Three_connected_ref = struct
  open Nettomo_graph

  let is_three_vertex_connected g =
    Graph.n_nodes g >= 4
    &&
    let c = Csr.of_graph g in
    let is_cut, search = Biconnected.Internal.cut_vertices_without c in
    let rec from v =
      v = c.Csr.n || (search v <= 1 && (not (Array.exists Fun.id is_cut)) && from (v + 1))
    in
    from 0
end

(* Theorems 3.1 and 3.3 as they ran on the persistent graph: the
   degree pass over the non-monitors, then the extended graph built as
   a [Graph.t] and swept. The reference for
   [Identifiability.network_identifiable], which runs on the flat
   graph. *)
module Identifiable_ref = struct
  open Nettomo_graph

  let network_identifiable net =
    let g = Net.graph net in
    match Net.monitor_list net with
    | [] | [ _ ] -> false
    | [ m1; m2 ] -> Graph.n_edges g = 1 && Graph.mem_edge g m1 m2
    | _ ->
        Graph.NodeSet.for_all (fun v -> Graph.degree g v >= 3) (Net.non_monitors net)
        && Three_connected_ref.is_three_vertex_connected (Extended.extend net).Extended.graph
end
