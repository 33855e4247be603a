open Nettomo_graph
module NS = Graph.NodeSet
module ES = Graph.EdgeSet
module Errors = Nettomo_util.Errors
module Invariant = Nettomo_util.Invariant
module Prng = Nettomo_util.Prng
module Net = Nettomo_core.Net
module Identifiability = Nettomo_core.Identifiability
module Classify = Nettomo_core.Classify
module Mmp = Nettomo_core.Mmp
module Solver = Nettomo_core.Solver
module Coverage = Nettomo_coverage.Coverage
module Measurement = Nettomo_core.Measurement
module Rational = Nettomo_linalg.Rational
module Solve = Nettomo_measure.Solve
module Store = Nettomo_store.Store
module Obs = Nettomo_obs.Obs

type delta =
  | Add_node of Graph.node
  | Remove_node of Graph.node
  | Add_link of Graph.node * Graph.node
  | Remove_link of Graph.node * Graph.node
  | Set_monitors of Graph.node list

let pp_delta ppf = function
  | Add_node v -> Format.fprintf ppf "add_node %d" v
  | Remove_node v -> Format.fprintf ppf "remove_node %d" v
  | Add_link (u, v) -> Format.fprintf ppf "add_link %d-%d" u v
  | Remove_link (u, v) -> Format.fprintf ppf "remove_link %d-%d" u v
  | Set_monitors ms ->
      Format.fprintf ppf "set_monitors [%a]"
        (Format.pp_print_list ~pp_sep:Format.pp_print_space Format.pp_print_int)
        ms

type stats = {
  deltas : int;
  queries : int;
  memo_hits : int;
  degree_shortcuts : int;
  verdict_carries : int;
  block_hits : int;
  block_misses : int;
  full_computes : int;
}

(* Counters are per-session Obs instruments: [stats] reads this
   session's cells, the process-wide metrics dump aggregates them, so
   the two views are the same memory and can never disagree. *)
type counters = {
  c_deltas : Obs.Metrics.counter;
  c_queries : Obs.Metrics.counter;
  c_degree_shortcuts : Obs.Metrics.counter;
  c_verdict_carries : Obs.Metrics.counter;
  c_block_hits : Obs.Metrics.counter;
  c_block_misses : Obs.Metrics.counter;
  c_full_computes : Obs.Metrics.counter;
  c_coverage_identifiable : Obs.Metrics.counter;
  c_coverage_unidentifiable : Obs.Metrics.counter;
  c_coverage_monitors_added : Obs.Metrics.counter;
  c_measure_walks : Obs.Metrics.counter;
  c_measure_links_recovered : Obs.Metrics.counter;
}

(* One query kind's answers, keyed by their store key, with the kind's
   memo hit/miss counters on the Obs registry. *)
type 'a memo = {
  label : string;
  answers : (string, ('a, string) result) Hashtbl.t;
  hits : Obs.Metrics.counter;
  misses : Obs.Metrics.counter;
}

let memo label =
  let cell name = Obs.Metrics.counter ~labels:[ ("query", label) ] name in
  {
    label;
    answers = Hashtbl.create 64;
    hits = cell "session_memo_hits_total";
    misses = cell "session_memo_misses_total";
  }

let memo_event m ~hit =
  Obs.Metrics.incr (if hit then m.hits else m.misses);
  Obs.Ctx.add_ambient (if hit then "memo.hits" else "memo.misses") 1.;
  Obs.Log.debug
    (if hit then "session.memo_hit" else "session.memo_miss")
    [ ("query", Obs.Log.Str m.label) ]

type t = {
  mutable net : Net.t;
  mutable fp : Fingerprint.t;
  mutable connected : bool option;  (** lazily maintained connectivity *)
  mutable deg_lt3 : int;  (** non-monitor nodes with degree < 3 *)
  mutable verdict : bool option;
      (** identifiability verdict carried across monotone deltas; only
          meaningful when κ ≥ 3 and the query preconditions hold *)
  seed : int;
  blockcache : (int64, Triconnected.component list * Graph.edge list) Hashtbl.t;
      (** per-block split and separation pairs, keyed by induced-subgraph
          fingerprint *)
  m_identifiable : bool memo;
  m_classify : Classify.kind Graph.EdgeMap.t memo;
  m_mmp : Mmp.report memo;
  m_plan : Solver.plan memo;
  m_coverage : Coverage.report memo;
  m_augment : Coverage.plan memo;
  m_solve : Solve.solution memo;
  store : Store.t option;
      (** second-level persistent cache, consulted only when the
          in-memory memos miss and only at full-computation sites *)
  counters : counters;
}

let count_deg_lt3 net =
  let g = Net.graph net in
  Graph.fold_nodes
    (fun v acc ->
      if (not (Net.is_monitor net v)) && Graph.degree g v < 3 then acc + 1
      else acc)
    g 0

let create ?(seed = 7) ?store net =
  {
    net;
    fp = Fingerprint.of_net net;
    connected = None;
    deg_lt3 = count_deg_lt3 net;
    verdict = None;
    seed;
    blockcache = Hashtbl.create 64;
    m_identifiable = memo "identifiable";
    m_classify = memo "classify";
    m_mmp = memo "mmp";
    m_plan = memo "plan";
    m_coverage = memo "coverage";
    m_augment = memo "augment";
    m_solve = memo "solve";
    store;
    counters =
      {
        c_deltas = Obs.Metrics.counter "session_deltas_total";
        c_queries = Obs.Metrics.counter "session_queries_total";
        c_degree_shortcuts = Obs.Metrics.counter "session_degree_shortcuts_total";
        c_verdict_carries = Obs.Metrics.counter "session_verdict_carries_total";
        c_block_hits = Obs.Metrics.counter "session_block_hits_total";
        c_block_misses = Obs.Metrics.counter "session_block_misses_total";
        c_full_computes = Obs.Metrics.counter "session_full_computes_total";
        c_coverage_identifiable =
          Obs.Metrics.counter "coverage_links_identifiable_total";
        c_coverage_unidentifiable =
          Obs.Metrics.counter "coverage_links_unidentifiable_total";
        c_coverage_monitors_added =
          Obs.Metrics.counter "coverage_monitors_added_total";
        c_measure_walks = Obs.Metrics.counter "measure_walks_total";
        c_measure_links_recovered =
          Obs.Metrics.counter "measure_links_recovered_total";
      };
  }

let net t = t.net
let fingerprint t = t.fp
let seed t = t.seed
let store t = t.store

(* The one store consultation site: the decoded entry under [key], or
   [compute]'s value published there. *)
let stored t key codec compute =
  let found =
    Option.bind t.store (fun s ->
        let r = Store.find_with s key ~decode:(Codec.decode codec) in
        Obs.Log.debug
          (if Option.is_some r then "session.store_hit"
           else "session.store_miss")
          [ ("key", Obs.Log.Str key) ];
        r)
  in
  match found with
  | Some v -> v
  | None ->
      let v = compute () in
      (* Encoded with or without a store. Skipping it without one makes
         bench/suite's solve-scale 14–20% faster even with the codec's
         own digit writers (16.3 → 18.6–19.7 op/s, seed 7; 27% before
         them), and its peak resident set then rises from 123 to
         199 MiB (2-vCPU host), but the program is not at fault: with
         the suite's forced full major before each set-up repetition
         removed, both builds peaked at 111–112 MiB. After a forced
         collection, a set-up repetition that allocates little leaves
         OCaml 5.1.1 completing almost no major cycle for the next ~100
         operations while the heap grows: a build that draws the truth
         in link-number order ([Scratch.truth_of]) finished 2 major
         cycles in its first 12 solve-scale ops while the heap grew
         from 49 to 180 MB, where this build grows from 57 to 100 MB in
         3 ops; both then settle near 70 MB. The encode stays until the
         suite's set-up loop is changed in a benchmark change of its
         own. *)
      let payload = Codec.encode codec v in
      Option.iter
        (fun s ->
          Store.put s key payload;
          Obs.Log.debug "session.store_put"
            [
              ("key", Obs.Log.Str key);
              ("bytes", Obs.Log.Int (String.length payload));
            ])
        t.store;
      v

(* A cache-miss full computation: counted on the registry and
   attributed to the ambient request, which is what the slow-request
   per-layer breakdown reports. *)
let full_compute t =
  Obs.Metrics.incr t.counters.c_full_computes;
  Obs.Ctx.add_ambient "full_computes" 1.

let stats t =
  let c = t.counters in
  let v = Obs.Metrics.counter_value in
  {
    deltas = v c.c_deltas;
    queries = v c.c_queries;
    (* Every memo hit increments exactly one kind's cell. *)
    memo_hits =
      v t.m_identifiable.hits + v t.m_classify.hits + v t.m_mmp.hits
      + v t.m_plan.hits + v t.m_coverage.hits + v t.m_augment.hits
      + v t.m_solve.hits;
    degree_shortcuts = v c.c_degree_shortcuts;
    verdict_carries = v c.c_verdict_carries;
    block_hits = v c.c_block_hits;
    block_misses = v c.c_block_misses;
    full_computes = v c.c_full_computes;
  }

(* ------------------------------------------------------------------ *)
(* From-scratch references and equality                                *)

let run_catch f =
  match f () with
  | v -> Ok v
  | exception Invalid_argument m -> Error m
  | exception Errors.Error m -> Error m
  | exception Paths.Limit_exceeded -> Error "path enumeration limit exceeded"

module Scratch = struct
  let identifiable n = run_catch (fun () -> Identifiability.network_identifiable n)
  let classify n = run_catch (fun () -> Classify.classify n)
  let mmp n = run_catch (fun () -> Mmp.place_report (Net.graph n))

  let plan ~seed n =
    run_catch (fun () -> Solver.independent_paths ~rng:(Prng.create seed) n)

  let coverage ~seed n = run_catch (fun () -> Coverage.classify ~seed n)
  let augment ~seed ~k n = run_catch (fun () -> Coverage.augment ~seed ~k n)

  (* Ground truth is drawn deterministically from the seed, so the whole
     simulated campaign — truth, walks, values, recovered metrics — is a
     pure function of (state, seed), like [plan]. The boxed [EdgeMap]
     costs as much as the solve on the suite's maps, but drawing the
     truth straight into link-number order shelved over memory:
     solve-scale 17.5 → 30.0 op/s with its peak 122.6 → 199.0 MiB
     (three alternating 20 s pairs, seeds 3–5, 2-vCPU host), the
     set-up-loop effect described at [stored]. *)
  let truth_of ~seed n =
    Measurement.random_weights (Prng.create seed) (Net.graph n)

  let solve ~seed n =
    Result.join
      (run_catch (fun () -> Solve.simulate n (truth_of ~seed n)))
end

let equal_report (a : Mmp.report) (b : Mmp.report) =
  NS.equal a.monitors b.monitors
  && NS.equal a.by_degree b.by_degree
  && NS.equal a.by_triconnected b.by_triconnected
  && NS.equal a.by_biconnected b.by_biconnected
  && NS.equal a.top_up b.top_up

let equal_path = List.equal Int.equal

let equal_kind a b =
  match (a, b) with
  | ( Classify.Cross_link { pa; pb; pc; pd },
      Classify.Cross_link { pa = pa'; pb = pb'; pc = pc'; pd = pd' } ) ->
      equal_path pa pa' && equal_path pb pb' && equal_path pc pc'
      && equal_path pd pd'
  | ( Classify.Shortcut { pa; pb; via },
      Classify.Shortcut { pa = pa'; pb = pb'; via = via' } ) ->
      equal_path pa pa' && equal_path pb pb' && equal_path via via'
  | Classify.Unclassified, Classify.Unclassified -> true
  | (Classify.Cross_link _ | Classify.Shortcut _ | Classify.Unclassified), _ ->
      false

let equal_classification = Graph.EdgeMap.equal equal_kind

let equal_plan (a : Solver.plan) (b : Solver.plan) =
  a.Solver.rank = b.Solver.rank
  && List.equal equal_path a.Solver.paths b.Solver.paths

let equal_mode (a : Coverage.mode) b =
  match (a, b) with
  | Coverage.Structural, Coverage.Structural -> true
  | Coverage.Exact, Coverage.Exact -> true
  | Coverage.Sampled, Coverage.Sampled -> true
  | (Coverage.Structural | Coverage.Exact | Coverage.Sampled), _ -> false

let equal_reason (a : Coverage.reason) b =
  match (a, b) with
  | Coverage.Whole_network, Coverage.Whole_network -> true
  | Coverage.Monitor_link, Coverage.Monitor_link -> true
  | Coverage.Low_degree, Coverage.Low_degree -> true
  | Coverage.Unmeasurable, Coverage.Unmeasurable -> true
  | Coverage.Block_theorem, Coverage.Block_theorem -> true
  | Coverage.Block_rank, Coverage.Block_rank -> true
  | Coverage.Rank, Coverage.Rank -> true
  | Coverage.Unresolved, Coverage.Unresolved -> true
  | ( ( Coverage.Whole_network | Coverage.Monitor_link | Coverage.Low_degree
      | Coverage.Unmeasurable | Coverage.Block_theorem | Coverage.Block_rank
      | Coverage.Rank | Coverage.Unresolved ),
      _ ) ->
      false

let equal_verdict (a : Coverage.verdict) (b : Coverage.verdict) =
  Bool.equal a.Coverage.identifiable b.Coverage.identifiable
  && equal_reason a.Coverage.reason b.Coverage.reason

let equal_coverage (a : Coverage.report) (b : Coverage.report) =
  equal_mode a.Coverage.mode b.Coverage.mode
  && Graph.EdgeMap.equal equal_verdict a.Coverage.verdicts b.Coverage.verdicts
  && ES.equal a.Coverage.identifiable b.Coverage.identifiable
  && ES.equal a.Coverage.unidentifiable b.Coverage.unidentifiable

let equal_solution = Solve.solution_equal

let equal_augment (a : Coverage.plan) (b : Coverage.plan) =
  a.Coverage.requested = b.Coverage.requested
  && List.equal Int.equal a.Coverage.added b.Coverage.added
  && Float.equal a.Coverage.coverage_before b.Coverage.coverage_before
  && Float.equal a.Coverage.coverage_after b.Coverage.coverage_after
  && Bool.equal a.Coverage.full b.Coverage.full

let equal_bicomp (a : Biconnected.component) (b : Biconnected.component) =
  NS.equal a.Biconnected.nodes b.Biconnected.nodes
  && ES.equal a.Biconnected.edges b.Biconnected.edges

let equal_tricomp (a : Triconnected.component) (b : Triconnected.component) =
  NS.equal a.Triconnected.nodes b.Triconnected.nodes
  && ES.equal a.Triconnected.edges b.Triconnected.edges
  && ES.equal a.Triconnected.virtuals b.Triconnected.virtuals

let equal_decomposition (a : Triconnected.t) (b : Triconnected.t) =
  List.equal
    (fun (ba, ca) (bb, cb) -> equal_bicomp ba bb && List.equal equal_tricomp ca cb)
    a.Triconnected.blocks b.Triconnected.blocks
  && NS.equal a.Triconnected.cut_vertices b.Triconnected.cut_vertices
  && List.equal Graph.edge_equal a.Triconnected.separation_pairs
       b.Triconnected.separation_pairs
  && NS.equal a.Triconnected.separation_vertices b.Triconnected.separation_vertices

let equal_result eq a b =
  match (a, b) with
  | Ok x, Ok y -> eq x y
  | Error x, Error y -> String.equal x y
  | Ok _, Error _ | Error _, Ok _ -> false

(* NETTOMO_CHECK-gated differential invariant: every answer the session
   returns — cached, carried or shortcut — must equal the from-scratch
   computation on the current network. *)
let differential t name eq got scratch =
  Invariant.check (fun () ->
      if not (equal_result eq got (scratch ())) then
        Invariant.violationf
          "Session.%s: incremental answer diverges from the from-scratch \
           computation (state %s)"
          name
          (Fingerprint.to_string t.fp))

(* ------------------------------------------------------------------ *)
(* Deltas                                                              *)

let rebuild t g monitors =
  t.net <- Net.create ~labels:(Net.labels t.net) g ~monitors:(NS.elements monitors)

let check_state t =
  Invariant.check (fun () ->
      if not (Fingerprint.equal t.fp (Fingerprint.of_net t.net)) then
        Invariant.violationf
          "Session.apply: incremental fingerprint diverges from of_net";
      if t.deg_lt3 <> count_deg_lt3 t.net then
        Invariant.violationf
          "Session.apply: deg_lt3 counter diverges (have %d, want %d)"
          t.deg_lt3 (count_deg_lt3 t.net);
      match t.connected with
      | None -> ()
      | Some c ->
          if c <> Traversal.is_connected (Net.graph t.net) then
            Invariant.violationf
              "Session.apply: connectivity cache diverges (cached %b)" c)

let delta_tag = function
  | Add_node _ -> "add_node"
  | Remove_node _ -> "remove_node"
  | Add_link _ -> "add_link"
  | Remove_link _ -> "remove_link"
  | Set_monitors _ -> "set_monitors"

let apply t delta =
  Obs.Trace.span ~attrs:[ ("action", delta_tag delta) ] "session.apply"
  @@ fun () ->
  let g = Net.graph t.net in
  let mon = Net.monitors t.net in
  (* Contribution of one node to [deg_lt3] in a given graph, with the
     current monitor set. *)
  let contrib gr w =
    if (not (NS.mem w mon)) && Graph.degree gr w < 3 then 1 else 0
  in
  let result =
    match delta with
    | Add_node v ->
        if Graph.mem_node g v then
          Error (Printf.sprintf "add_node: node %d already present" v)
        else begin
          let g' = Graph.add_node g v in
          rebuild t g' mon;
          t.fp <- Fingerprint.with_node t.fp v;
          (* The new node is isolated: connected iff it is alone. *)
          t.connected <- Some (Graph.n_nodes g' <= 1);
          t.deg_lt3 <- t.deg_lt3 + 1;
          t.verdict <- None;
          Ok ()
        end
    | Remove_node v ->
        if not (Graph.mem_node g v) then
          Error (Printf.sprintf "remove_node: node %d not present" v)
        else begin
          let incident = Graph.incident_edges g v in
          let d = List.length incident in
          let g' = Graph.remove_node g v in
          let mon' = NS.remove v mon in
          rebuild t g' mon';
          let fp =
            List.fold_left
              (fun fp (a, b) -> Fingerprint.with_edge fp a b)
              (Fingerprint.with_node t.fp v)
              incident
          in
          t.fp <- (if NS.mem v mon then Fingerprint.with_monitor fp v else fp);
          (* Dropping a pendant or isolated node from a connected graph
             keeps it connected; anything else can merge or split. *)
          t.connected <-
            (if Graph.n_nodes g' <= 1 then Some true
             else
               match t.connected with
               | Some true when d <= 1 -> Some true
               | Some _ | None -> None);
          t.deg_lt3 <- count_deg_lt3 t.net;
          t.verdict <- None;
          Ok ()
        end
    | Add_link (u, v) ->
        if u = v then Error (Printf.sprintf "add_link: self-loop at node %d" u)
        else if Graph.mem_edge g u v then
          Error (Printf.sprintf "add_link: link %d-%d already present" u v)
        else begin
          let fresh_u = not (Graph.mem_node g u) in
          let fresh_v = not (Graph.mem_node g v) in
          let g' = Graph.add_edge g u v in
          let old_contrib w fresh = if fresh then 0 else contrib g w in
          t.deg_lt3 <-
            t.deg_lt3
            + (contrib g' u - old_contrib u fresh_u)
            + (contrib g' v - old_contrib v fresh_v);
          rebuild t g' mon;
          let fp = t.fp in
          let fp = if fresh_u then Fingerprint.with_node fp u else fp in
          let fp = if fresh_v then Fingerprint.with_node fp v else fp in
          t.fp <- Fingerprint.with_edge fp u v;
          t.connected <-
            (if fresh_u && fresh_v then Some (Graph.n_nodes g' = 2)
             else if fresh_u || fresh_v then t.connected
             else
               match t.connected with Some true -> Some true | Some _ | None -> None);
          (* Adding a link between existing nodes preserves a positive
             κ ≥ 3 verdict (the extended graph gains a link on the same
             node set, and degrees only grow). *)
          t.verdict <-
            (if fresh_u || fresh_v then None
             else match t.verdict with Some true -> Some true | Some _ | None -> None);
          Ok ()
        end
    | Remove_link (u, v) ->
        if u = v then
          Error (Printf.sprintf "remove_link: self-loop at node %d" u)
        else if not (Graph.mem_edge g u v) then
          Error (Printf.sprintf "remove_link: link %d-%d not present" u v)
        else begin
          let g' = Graph.remove_edge g u v in
          t.deg_lt3 <-
            t.deg_lt3 + (contrib g' u - contrib g u) + (contrib g' v - contrib g v);
          rebuild t g' mon;
          t.fp <- Fingerprint.with_edge t.fp u v;
          t.connected <-
            (match t.connected with Some false -> Some false | Some _ | None -> None);
          (* Removing a link preserves a negative verdict: it can only
             lose connectivity and degrees. *)
          t.verdict <-
            (match t.verdict with Some false -> Some false | Some _ | None -> None);
          Ok ()
        end
    | Set_monitors ms -> (
        match Net.create ~labels:(Net.labels t.net) g ~monitors:ms with
        | exception Invalid_argument m -> Error m
        | net' ->
            let mon' = Net.monitors net' in
            (* Monotonicity across monitor changes (κ ≥ 3 on both
               sides): a superset preserves identifiability, a subset
               preserves non-identifiability. *)
            t.verdict <-
              (if NS.cardinal mon >= 3 && NS.cardinal mon' >= 3 then
                 if NS.subset mon mon' then
                   (match t.verdict with
                   | Some true -> Some true
                   | Some _ | None -> None)
                 else if NS.subset mon' mon then
                   (match t.verdict with
                   | Some false -> Some false
                   | Some _ | None -> None)
                 else None
               else None);
            t.net <- net';
            t.fp <- Fingerprint.with_monitor_set t.fp mon';
            t.deg_lt3 <- count_deg_lt3 net';
            Ok ())
  in
  (match result with
  | Ok () ->
      Obs.Metrics.incr t.counters.c_deltas;
      check_state t
  | Error _ -> ());
  result

(* ------------------------------------------------------------------ *)
(* Queries                                                             *)

(* One query kind, as [run] answers it. *)
type 'a query = {
  key : string;  (** store key of this state's answer, also its memo key *)
  codec : ('a, string) result Codec.t;
  memo : 'a memo;
  fast : unit -> ('a, string) result option;
      (** an answer that needs no analysis and never touches the store *)
  compute : unit -> ('a, string) result;  (** the analysis itself *)
  scratch : unit -> ('a, string) result;  (** the from-scratch reference *)
  equal : 'a -> 'a -> bool;
  fresh : 'a -> unit;  (** counts an answer [compute] just produced *)
  after : ('a, string) result -> unit;  (** runs on every answer *)
}

let query ~key ~codec ~memo ~scratch ~equal =
  {
    key;
    codec;
    memo;
    fast = (fun () -> None);
    compute = scratch;
    scratch;
    equal;
    fresh = ignore;
    after = ignore;
  }

(* memo → fast path → store → compute, then the NETTOMO_CHECK
   differential on whatever answered. *)
let run t q =
  Obs.Metrics.incr t.counters.c_queries;
  let r =
    match Hashtbl.find_opt q.memo.answers q.key with
    | Some r ->
        memo_event q.memo ~hit:true;
        r
    | None ->
        memo_event q.memo ~hit:false;
        let r =
          match q.fast () with
          | Some r -> r
          | None ->
              stored t q.key q.codec (fun () ->
                  full_compute t;
                  let r =
                    Obs.Trace.span
                      ~attrs:[ ("query", q.memo.label) ]
                      "session.compute" q.compute
                  in
                  Result.iter q.fresh r;
                  r)
        in
        Hashtbl.add q.memo.answers q.key r;
        r
  in
  differential t q.memo.label q.equal r q.scratch;
  q.after r;
  r

(* Keys of answers that depend on the whole state: both fingerprint
   halves, then [ints] (seed, budget). *)
let state_key t tag ints =
  Codec.key tag [ t.fp.Fingerprint.structure; t.fp.Fingerprint.monitors ] ints

let is_connected_now t =
  match t.connected with
  | Some c -> c
  | None ->
      let c = Traversal.is_connected (Net.graph t.net) in
      t.connected <- Some c;
      c

(* Identifiability answers that need no analysis: a precondition
   failure (delegated, so the error message matches the library's
   exactly), κ ≤ 2 (Theorem 3.1, O(1) here), a non-monitor of degree
   < 3 (Theorem 3.3 needs every one at degree ≥ 3), or a verdict
   carried across monotone deltas. *)
let identifiable_fast t =
  let n = t.net in
  let g = Net.graph n in
  if not (is_connected_now t && Graph.n_edges g > 0) then
    Some (Scratch.identifiable n)
  else
    match Net.kappa n with
    | 0 | 1 -> Some (Ok false)
    | 2 -> (
        match Net.monitor_list n with
        | [ m1; m2 ] ->
            Some (Ok (Graph.n_edges g = 1 && Graph.mem_edge g m1 m2))
        | _ -> Errors.error "Session: kappa = 2 but monitor_list disagrees")
    | _ when t.deg_lt3 > 0 ->
        Obs.Metrics.incr t.counters.c_degree_shortcuts;
        Some (Ok false)
    | _ ->
        Option.map
          (fun v ->
            Obs.Metrics.incr t.counters.c_verdict_carries;
            Ok v)
          t.verdict

(* The fast path settles connectivity, κ ≤ 2 and every non-monitor's
   degree, so what reaches [compute] is Theorem 3.3's test alone. *)
let identifiable t =
  run t
    {
      (query ~key:(state_key t "id" []) ~codec:Codec.identifiable
         ~memo:t.m_identifiable
         ~scratch:(fun () -> Scratch.identifiable t.net)
         ~equal:Bool.equal)
      with
      fast = (fun () -> identifiable_fast t);
      compute =
        (fun () ->
          run_catch (fun () -> Identifiability.extended_three_connected t.net));
      after =
        (function
        | Ok v when Net.kappa t.net >= 3 -> t.verdict <- Some v
        | Ok _ | Error _ -> ());
    }

let block_key (block : Biconnected.component) =
  Fingerprint.of_component block.Biconnected.nodes block.Biconnected.edges

(* Reassemble [Triconnected.decompose g] through the per-block cache:
   the cheap linear biconnected pass always reruns, while the expensive
   per-block split (components and separation pairs) is looked up by the
   block's content fingerprint — so a delta only costs recomputation
   inside the blocks it touched, and block merges/splits are plain cache
   misses. The whole decomposition is not memoised: its one caller,
   [mmp]'s compute, runs only when [mmp]'s memo, keyed by the same
   structure fingerprint, misses. *)
let decomposition t =
  Obs.Trace.span "session.decomposition" @@ fun () ->
  let g = Net.graph t.net in
  (* One block's split: the in-memory cache, else the store's [tri] entry
     and, for blocks of 4 nodes or more, its [sep] entry; the block is
     split at most once, and only when one of them is missing. *)
  let split (block : Biconnected.component) =
    let key = block_key block in
    let cached = Hashtbl.find_opt t.blockcache key in
    let hit = Option.is_some cached in
    Obs.Metrics.incr
      (if hit then t.counters.c_block_hits else t.counters.c_block_misses);
    Obs.Ctx.add_ambient (if hit then "block.hits" else "block.misses") 1.;
    match cached with
    | Some piece -> piece
    | None ->
        let fresh =
          lazy
            (Triconnected.split_biconnected
               (Graph.induced g block.Biconnected.nodes))
        in
        let entry tag codec half =
          stored t (Codec.key tag [ key ] []) codec (fun () ->
              half (Lazy.force fresh))
        in
        let comps = entry "tri" Codec.components fst in
        let pairs =
          if NS.cardinal block.Biconnected.nodes < 4 then []
          else entry "sep" Codec.edges snd
        in
        Hashtbl.add t.blockcache key (comps, pairs);
        (comps, pairs)
  in
  let d = Triconnected.assemble (Biconnected.decompose g) ~split in
  Invariant.check (fun () ->
      if not (equal_decomposition d (Triconnected.decompose g)) then
        Invariant.violationf
          "Session.decomposition: cached reassembly diverges from \
           Triconnected.decompose (state %s)"
          (Fingerprint.to_string t.fp));
  d

(* MMP ignores monitors, so it is keyed by the structure half alone. *)
let mmp t =
  let g = Net.graph t.net in
  run t
    {
      (query
         ~key:(Codec.key "mmp" [ t.fp.Fingerprint.structure ] [])
         ~codec:Codec.report ~memo:t.m_mmp
         ~scratch:(fun () -> Scratch.mmp t.net)
         ~equal:equal_report)
      with
      fast =
        (fun () ->
          if Graph.is_empty g || not (is_connected_now t) then
            Some (Scratch.mmp t.net)
          else None);
      compute =
        (fun () ->
          run_catch (fun () ->
              Mmp.place_report_decomposed g (decomposition t)));
    }

let classify t =
  run t
    (query ~key:(state_key t "cls" []) ~codec:Codec.classification
       ~memo:t.m_classify
       ~scratch:(fun () -> Scratch.classify t.net)
       ~equal:equal_classification)

let plan t =
  run t
    (query ~key:(state_key t "plan" [ t.seed ]) ~codec:(Codec.plan ~net:t.net)
       ~memo:t.m_plan
       ~scratch:(fun () -> Scratch.plan ~seed:t.seed t.net)
       ~equal:equal_plan)

(* NETTOMO_CHECK: on graphs small enough to enumerate every simple
   path, the structural classifier must reproduce the exact rank
   oracle's identifiable set link for link (the structural rules are
   exact there; only past [rank_node_limit] does the report degrade to
   a lower bound). *)
let coverage_oracle t r =
  Invariant.check (fun () ->
      match r with
      | Error _ -> ()
      | Ok (rep : Coverage.report) ->
          if Graph.n_nodes (Net.graph t.net) <= 12 then (
            match Identifiability.identifiable_links_bruteforce t.net with
            | exception Paths.Limit_exceeded -> ()
            | oracle ->
                if not (ES.equal rep.Coverage.identifiable oracle) then
                  Invariant.violationf
                    "Session.coverage: classifier diverges from the exact \
                     rank oracle (state %s)"
                    (Fingerprint.to_string t.fp)))

let coverage t =
  run t
    {
      (query ~key:(state_key t "cov" [ t.seed ]) ~codec:Codec.coverage
         ~memo:t.m_coverage
         ~scratch:(fun () -> Scratch.coverage ~seed:t.seed t.net)
         ~equal:equal_coverage)
      with
      fresh =
        (fun rep ->
          Obs.Metrics.incr
            ~by:(ES.cardinal rep.Coverage.identifiable)
            t.counters.c_coverage_identifiable;
          Obs.Metrics.incr
            ~by:(ES.cardinal rep.Coverage.unidentifiable)
            t.counters.c_coverage_unidentifiable);
      after = coverage_oracle t;
    }

let augment t ~k =
  run t
    {
      (query ~key:(state_key t "aug" [ t.seed; k ]) ~codec:Codec.augment
         ~memo:t.m_augment
         ~scratch:(fun () -> Scratch.augment ~seed:t.seed ~k t.net)
         ~equal:equal_augment)
      with
      fresh =
        (fun p ->
          Obs.Metrics.incr
            ~by:(List.length p.Coverage.added)
            t.counters.c_coverage_monitors_added);
    }

(* NETTOMO_CHECK: on networks small enough for the exact simple-path
   pipeline, the float metrics recovered from the constructive walks
   must equal the exact-ℚ Solver's recovery bit for bit (ground truth is
   integral, so both pipelines compute exact small integers). The walk
   model is strictly stronger than the simple-path model, so the oracle
   returning [None] — not identifiable with simple paths — says nothing
   against a successful walk recovery. *)
let solve_oracle t r =
  Invariant.check (fun () ->
      match r with
      | Error _ -> ()
      | Ok (sol : Solve.solution) ->
          if Graph.n_nodes (Net.graph t.net) <= 12 then (
            let truth = Scratch.truth_of ~seed:t.seed t.net in
            match
              Solver.recover ~rng:(Prng.create t.seed) t.net truth
            with
            | None | (exception Paths.Limit_exceeded) -> ()
            | Some exact ->
                List.iter
                  (fun (e, q) ->
                    Array.iteri
                      (fun i e' ->
                        if
                          Graph.edge_equal e e'
                          && not
                               (Float.equal sol.Solve.metrics.(i)
                                  (Rational.to_float q))
                        then
                          Invariant.violationf
                            "Session.solve: walk recovery diverges from the \
                             exact solver on link %d-%d (state %s)"
                            (fst e) (snd e)
                            (Fingerprint.to_string t.fp))
                      sol.Solve.links)
                  exact))

let solve t =
  run t
    {
      (query ~key:(state_key t "sol" [ t.seed ]) ~codec:Codec.solution
         ~memo:t.m_solve
         ~scratch:(fun () -> Scratch.solve ~seed:t.seed t.net)
         ~equal:equal_solution)
      with
      fresh =
        (fun sol ->
          Obs.Metrics.incr ~by:sol.Solve.measurements
            t.counters.c_measure_walks;
          Obs.Metrics.incr
            ~by:(Array.length sol.Solve.metrics)
            t.counters.c_measure_links_recovered);
      after = solve_oracle t;
    }
