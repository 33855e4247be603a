(* Experiment harness: regenerates every table and figure of the paper's
   evaluation, printing measured values next to the paper's reported
   ones, plus Bechamel micro-benchmarks of the core algorithms.

   Usage:
     dune exec bench/main.exe                 (all experiments, reduced volume)
     dune exec bench/main.exe -- fig9 table2  (selected experiments)
     dune exec bench/main.exe -- --full       (paper-scale Monte-Carlo volume)
     dune exec bench/main.exe -- --seed 42
     dune exec bench/main.exe -- --jobs 4     (parallel Monte-Carlo trials)
     dune exec bench/main.exe -- --json b.json (machine-readable report)
     dune exec bench/main.exe -- serve-soak --clients 32 (socket soak)

   The Monte-Carlo experiments (fig9 fig10 fig11 fig12 table2 table3)
   run their trials on a Domain pool; per-trial PRNG substreams make
   the statistics bit-identical for every --jobs value.

   Experiment ids match the per-experiment index in DESIGN.md:
     e1 e2 e3 e4 fig9 fig10 table2 fig11 table3 fig12 e11 ablation churn
     churn-warm coverage-churn solve-scale serve-soak perf *)

open Nettomo_graph
open Nettomo_topo
open Nettomo_core
module Prng = Nettomo_util.Prng
module Pool = Nettomo_util.Pool
module Jsonx = Nettomo_util.Jsonx
module Q = Nettomo_linalg.Rational
module Matrix = Nettomo_linalg.Matrix
module Inv = Nettomo_util.Invariant
module Obs = Nettomo_obs.Obs

type config = { full : bool; seed : int; pool : Pool.t; report : Report.t }

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let subsection title = Printf.printf "\n-- %s --\n" title

(* ------------------------------------------------------------------ *)
(* E1: the Section 2.3 example (Fig. 1)                                *)

let e1 cfg =
  section "E1: Section 2.3 example (Fig. 1) -- R invertible, w = R^-1 c";
  let net = Paper.fig1 in
  let g = Net.graph net in
  let space = Measurement.space g in
  let r = Measurement.matrix space Paper.fig1_paths in
  Inv.check (fun () -> Invariant.check_measurement space Paper.fig1_paths r);
  Printf.printf "measurement matrix R: %d paths x %d links, rank %d\n"
    (Matrix.rows r) (Matrix.cols r) (Matrix.rank r);
  Printf.printf "paper: R is invertible             -> ours: %b\n"
    (Matrix.rank r = 11);
  let rng = Prng.create cfg.seed in
  let truth = Measurement.random_weights ~lo:1 ~hi:20 rng g in
  let c = Measurement.measure_all truth Paper.fig1_paths in
  (match Matrix.solve r c with
  | Some w ->
      let order = Measurement.link_order space in
      let exact =
        Array.for_all2
          (fun e x -> Q.equal x (Measurement.weight truth e))
          order w
      in
      Printf.printf "paper: w = R^-1 c recovers metrics -> ours: exact recovery %b\n"
        exact
  | None -> print_endline "UNEXPECTED: system inconsistent");
  Printf.printf
    "paper: removing m3 loses invertibility -> ours: identifiable with {m1,m2} = %b\n"
    (Identifiability.network_identifiable (Net.with_monitors net [ 0; 1 ]));
  Printf.printf "topological test (Theorem 3.3) on the full monitor set: %b\n"
    (Identifiability.network_identifiable net)

(* ------------------------------------------------------------------ *)
(* E2: Theorem 3.1 / Corollary 4.1 empirically                         *)

let e2 cfg =
  section "E2: Theorem 3.1 -- two monitors never identify a network with >= 2 links";
  let rng = Prng.create (cfg.seed + 1) in
  let graphs = if cfg.full then 40 else 15 in
  let identifiable = ref 0 and total = ref 0 and exterior_bad = ref 0 in
  for _ = 1 to graphs do
    let n = 5 + Prng.int rng 4 in
    let g = Gen.random_connected rng ~n ~extra:(Prng.int rng 8) in
    let monitors = Array.to_list (Prng.sample rng 2 (Graph.node_array g)) in
    let net = Net.create g ~monitors in
    incr total;
    if Identifiability.network_identifiable_bruteforce net then incr identifiable;
    (* Corollary 4.1: exterior links (except a direct monitor-monitor
       link) are unidentifiable. *)
    let ok = Identifiability.identifiable_links_bruteforce net in
    let m1, m2 = (List.nth monitors 0, List.nth monitors 1) in
    Graph.EdgeSet.iter
      (fun e ->
        if (not (Graph.edge_equal e (Graph.edge m1 m2))) && Graph.EdgeSet.mem e ok
        then incr exterior_bad)
      (Interior.exterior_links net)
  done;
  Printf.printf "random 2-monitor networks tested: %d\n" !total;
  Printf.printf "paper: 0 identifiable              -> ours: %d identifiable\n"
    !identifiable;
  Printf.printf
    "paper: exterior links unidentifiable (Cor 4.1) -> ours: %d violations\n"
    !exterior_bad

(* ------------------------------------------------------------------ *)
(* E3: Fig. 6 -- interior identifiability and link classification      *)

let e3 cfg =
  section "E3: Fig. 6 -- identifiable interior graph: cross-links and shortcuts";
  let net = Paper.fig6 in
  Printf.printf "Theorem 3.2 conditions hold: %b (paper: yes)\n"
    (Identifiability.interior_identifiable_two net);
  let cycles = Classify.non_separating_cycles net in
  Printf.printf "non-separating cycles found: %d (paper lists 4)\n"
    (List.length cycles);
  List.iter
    (fun c ->
      Printf.printf "  cycle: %s\n" (String.concat "-" (List.map string_of_int c)))
    cycles;
  let kinds = Classify.classify net in
  let cross, short =
    Graph.EdgeMap.fold
      (fun _ k (c, s) ->
        match k with
        | Classify.Cross_link _ -> (c + 1, s)
        | Classify.Shortcut _ -> (c, s + 1)
        | Classify.Unclassified -> (c, s))
      kinds (0, 0)
  in
  Printf.printf
    "interior links: %d cross-links + %d shortcuts (all %d classified: %b)\n"
    cross short
    (Graph.EdgeMap.cardinal kinds)
    (cross + short = Graph.EdgeMap.cardinal kinds);
  let rng = Prng.create (cfg.seed + 2) in
  let truth = Measurement.random_weights ~lo:1 ~hi:30 rng (Net.graph net) in
  let recovered = Classify.identify net truth in
  let exact =
    List.for_all (fun (e, w) -> Q.equal w (Measurement.weight truth e)) recovered
  in
  Printf.printf
    "equations (7)/(9) recover all %d interior metrics exactly: %b\n"
    (List.length recovered) exact

(* ------------------------------------------------------------------ *)
(* E4: Fig. 8-style MMP walkthrough                                    *)

let nodeset_to_string s =
  Graph.NodeSet.elements s |> List.map string_of_int |> String.concat " "

let e4 _cfg =
  section "E4: Section 7.2 walkthrough -- MMP on a Fig. 8-style 22-node graph";
  let g = Paper.fig8_like in
  Printf.printf "|V| = %d, |L| = %d\n" (Graph.n_nodes g) (Graph.n_edges g);
  let t = Triconnected.decompose g in
  Printf.printf "cut vertices: %s\n" (nodeset_to_string t.Triconnected.cut_vertices);
  Printf.printf "2-vertex cuts: %s\n"
    (String.concat " "
       (List.map (fun (a, b) -> Printf.sprintf "{%d,%d}" a b)
          t.Triconnected.separation_pairs));
  let blocks3 =
    List.filter
      (fun ((b : Biconnected.component), _) -> Graph.NodeSet.cardinal b.nodes >= 3)
      t.Triconnected.blocks
  in
  Printf.printf "biconnected components with >= 3 nodes: %d\n" (List.length blocks3);
  List.iter
    (fun ((b : Biconnected.component), tricomps) ->
      Printf.printf "  block {%s} -> %d triconnected component(s)\n"
        (nodeset_to_string b.nodes) (List.length tricomps))
    blocks3;
  let r = Mmp.place_report g in
  Inv.check (fun () -> Invariant.check_mmp g r.Mmp.monitors);
  Printf.printf "rule (i)-(ii) degree < 3 : %s\n" (nodeset_to_string r.Mmp.by_degree);
  Printf.printf "rule (iii) triconnected  : %s\n"
    (nodeset_to_string r.Mmp.by_triconnected);
  Printf.printf "rule (iv) biconnected    : %s\n"
    (nodeset_to_string r.Mmp.by_biconnected);
  Printf.printf "top-up to three          : %s\n" (nodeset_to_string r.Mmp.top_up);
  Printf.printf "total monitors: %d of %d nodes (paper's own example: 11 of 22)\n"
    (Graph.NodeSet.cardinal r.Mmp.monitors)
    (Graph.n_nodes g);
  let net = Net.create g ~monitors:(Graph.NodeSet.elements r.Mmp.monitors) in
  Printf.printf "placement identifiable (Theorem 3.3): %b\n"
    (Identifiability.network_identifiable net)

(* ------------------------------------------------------------------ *)
(* Figs. 9-10: random topologies                                       *)

type model = {
  mname : string;
  draw : Prng.t -> Graph.t;
  paper_n : float;
  paper_kappa : float;
}

let dense_models =
  [
    { mname = "BA"; paper_n = 441.0; paper_kappa = 3.0;
      draw = (fun rng -> Gen.barabasi_albert rng ~n:150 ~nmin:3) };
    { mname = "ER"; paper_n = 437.0; paper_kappa = 9.36;
      draw =
        (fun rng ->
          Gen.until_connected (fun () -> Gen.erdos_renyi rng ~n:150 ~p:0.039)) };
    { mname = "RG"; paper_n = 451.0; paper_kappa = 14.52;
      draw =
        (fun rng ->
          Gen.until_connected (fun () ->
              Gen.random_geometric rng ~n:150 ~radius:0.11943)) };
    { mname = "PL"; paper_n = 437.0; paper_kappa = 19.42;
      draw =
        (fun rng ->
          Gen.until_connected (fun () -> Gen.power_law rng ~n:150 ~alpha:0.42)) };
  ]

let sparse_models =
  [
    { mname = "BA"; paper_n = 295.0; paper_kappa = 73.51;
      draw = (fun rng -> Gen.barabasi_albert rng ~n:150 ~nmin:2) };
    { mname = "ER"; paper_n = 293.0; paper_kappa = 36.76;
      draw =
        (fun rng ->
          Gen.until_connected (fun () -> Gen.erdos_renyi rng ~n:150 ~p:0.0253)) };
    { mname = "PL"; paper_n = 297.0; paper_kappa = 40.24;
      draw =
        (fun rng ->
          Gen.until_connected (fun () -> Gen.power_law rng ~n:150 ~alpha:0.32)) };
  ]

let kappa_grid = [ 3; 5; 10; 20; 40; 60; 80; 100; 120; 150 ]

(* Probability that MMP achieves identifiability with a budget of kappa
   monitors: the fraction of realizations with kappa_MMP <= kappa
   (footnote 15 of the paper). RMP: Monte-Carlo success fraction. *)
let random_models cfg tag models =
  section tag;
  let realizations = if cfg.full then 50 else 5 in
  let rmp_runs = if cfg.full then 500 else 30 in
  Printf.printf "realizations per model: %d; RMP Monte-Carlo runs per point: %d\n"
    realizations rmp_runs;
  Printf.printf "%-4s %10s %10s %14s %14s\n" "" "n(paper)" "n(ours)"
    "kMMP(paper)" "kMMP(ours)";
  let per_model =
    List.map
      (fun m ->
        let rng = Prng.create (cfg.seed + Hashtbl.hash m.mname) in
        let graphs = List.init realizations (fun _ -> m.draw rng) in
        let links = List.map (fun g -> float_of_int (Graph.n_edges g)) graphs in
        (* MMP is deterministic per graph, so placements for the
           realizations are independent work items. *)
        let kappas =
          Array.to_list
            (Pool.map cfg.pool
               (fun g -> float_of_int (Graph.NodeSet.cardinal (Mmp.place g)))
               (Array.of_list graphs))
        in
        Printf.printf "%-4s %10.0f %10.1f %14.2f %14.2f\n" m.mname m.paper_n
          (Stats.mean links) m.paper_kappa (Stats.mean kappas);
        (m, graphs, kappas))
      models
  in
  subsection "probability of identifiability vs number of monitors kappa";
  Printf.printf "%-9s" "kappa";
  List.iter (fun k -> Printf.printf " %5d" k) kappa_grid;
  print_newline ();
  let curve_series model method_ fractions =
    Jsonx.Obj
      [
        ("model", Jsonx.String model);
        ("method", Jsonx.String method_);
        ("kappa", Jsonx.List (List.map (fun k -> Jsonx.Int k) kappa_grid));
        ("fraction", Jsonx.List (List.map (fun f -> Jsonx.Float f) fractions));
      ]
  in
  List.iter
    (fun (m, graphs, kappas) ->
      let mmp_curve =
        List.map
          (fun k ->
            let hits =
              List.length (List.filter (fun km -> km <= float_of_int k) kappas)
            in
            float_of_int hits /. float_of_int (List.length kappas))
          kappa_grid
      in
      Printf.printf "MMP %-5s" m.mname;
      List.iter (fun f -> Printf.printf " %5.2f" f) mmp_curve;
      print_newline ();
      Report.add_series cfg.report (curve_series m.mname "mmp" mmp_curve);
      let rng = Prng.create (cfg.seed + 1 + Hashtbl.hash m.mname) in
      let rmp_curve =
        List.map
          (fun k ->
            let fracs =
              List.map
                (fun g ->
                  Rmp.success_fraction_par ~pool:cfg.pool rng g ~kappa:k
                    ~runs:rmp_runs)
                graphs
            in
            Stats.mean fracs)
          kappa_grid
      in
      Report.add_trials cfg.report
        (List.length kappa_grid * List.length graphs * rmp_runs);
      Printf.printf "RMP %-5s" m.mname;
      List.iter (fun f -> Printf.printf " %5.2f" f) rmp_curve;
      print_newline ();
      Report.add_series cfg.report (curve_series m.mname "rmp" rmp_curve))
    per_model;
  print_endline
    "expected shape (paper): MMP reaches 1.0 at small kappa; RMP needs far\n\
     more monitors except on BA nmin=3, which is mostly 3-vertex-connected."

let fig9 cfg =
  random_models cfg "Fig. 9: densely-connected random graphs (|V| = 150)"
    dense_models

let fig10 cfg =
  random_models cfg "Fig. 10: sparsely-connected random graphs (|V| = 150)"
    sparse_models

(* ------------------------------------------------------------------ *)
(* Tables 2-3 and Figs. 11-12: ISP-like topologies                     *)

let isp_table cfg tag specs =
  section tag;
  Printf.printf "%-18s %6s %6s %12s %12s %12s %12s\n" "AS" "|L|" "|V|"
    "kMMP(paper)" "kMMP(ours)" "rMMP(paper)" "rMMP(ours)";
  (* Each AS row seeds its own generator, so generation + placement of
     the rows are independent work items for the pool. *)
  let rows =
    Pool.map cfg.pool
      (fun (i, spec) ->
        let rng = Prng.create (cfg.seed + (31 * i)) in
        let g = Isp.generate rng spec in
        let kappa = Graph.NodeSet.cardinal (Mmp.place g) in
        (spec, g, kappa))
      (Array.of_list (List.mapi (fun i spec -> (i, spec)) specs))
  in
  Array.to_list
    (Array.map
       (fun (spec, g, kappa) ->
         let r = float_of_int kappa /. float_of_int spec.Isp.nodes in
         let paper_kappa =
           int_of_float
             (Float.round (spec.Isp.paper_r_mmp *. float_of_int spec.Isp.nodes))
         in
         Printf.printf "%-18s %6d %6d %12d %12d %12.2f %12.2f\n" spec.Isp.name
           spec.Isp.links spec.Isp.nodes paper_kappa kappa spec.Isp.paper_r_mmp
           r;
         Report.add_series cfg.report
           (Jsonx.Obj
              [
                ("as", Jsonx.String spec.Isp.name);
                ("nodes", Jsonx.Int spec.Isp.nodes);
                ("links", Jsonx.Int spec.Isp.links);
                ("kappa_mmp", Jsonx.Int kappa);
                ("r_mmp", Jsonx.Float r);
                ("r_mmp_paper", Jsonx.Float spec.Isp.paper_r_mmp);
              ]);
         (spec, g))
       rows)

let rmp_fractions = [ 0.95; 0.96; 0.97; 0.98; 0.99; 1.0 ]

let isp_rmp_curves cfg tag pairs =
  section tag;
  let runs = if cfg.full then 300 else 40 in
  Printf.printf "RMP Monte-Carlo runs per point: %d\n" runs;
  Printf.printf "%-18s" "kappa/|V|:";
  List.iter (fun f -> Printf.printf " %5.2f" f) rmp_fractions;
  print_newline ();
  List.iter
    (fun ((spec : Isp.spec), g) ->
      let rng = Prng.create (cfg.seed + Hashtbl.hash spec.Isp.name) in
      Printf.printf "%-18s" spec.Isp.name;
      let curve =
        List.map
          (fun f ->
            let kappa =
              min spec.Isp.nodes
                (int_of_float (Float.round (f *. float_of_int spec.Isp.nodes)))
            in
            let frac =
              Rmp.success_fraction_par ~pool:cfg.pool rng g ~kappa ~runs
            in
            Printf.printf " %5.2f" frac;
            frac)
          rmp_fractions
      in
      Report.add_trials cfg.report (List.length rmp_fractions * runs);
      Report.add_series cfg.report
        (Jsonx.Obj
           [
             ("as", Jsonx.String spec.Isp.name);
             ("method", Jsonx.String "rmp");
             ( "monitor_fraction",
               Jsonx.List (List.map (fun f -> Jsonx.Float f) rmp_fractions) );
             ("fraction", Jsonx.List (List.map (fun f -> Jsonx.Float f) curve));
           ]);
      Printf.printf "  (rMMP ours: %.2f)\n"
        (float_of_int (Graph.NodeSet.cardinal (Mmp.place g))
        /. float_of_int spec.Isp.nodes))
    pairs;
  print_endline
    "expected shape (paper): RMP mostly fails even with 95-99% of nodes as\n\
     monitors, while MMP guarantees identifiability at its rMMP fraction."

let table2 cfg =
  isp_table cfg
    "Table 2: Rocketfuel-like AS topologies (synthetic substitution, see DESIGN.md)"
    Isp.rocketfuel

let fig11 cfg pairs =
  isp_rmp_curves cfg "Fig. 11: RMP on Rocketfuel-like topologies" pairs

let table3 cfg =
  isp_table cfg
    "Table 3: CAIDA-like AS topologies (synthetic substitution, see DESIGN.md)"
    Isp.caida

let fig12 cfg pairs =
  isp_rmp_curves cfg "Fig. 12: RMP on CAIDA-like topologies" pairs

(* ------------------------------------------------------------------ *)
(* E11: side facts of Section 7.3.1                                    *)

let e11 cfg =
  section "E11: Section 7.3.1 side facts about BA graphs";
  let trials = if cfg.full then 200 else 40 in
  let rng = Prng.create (cfg.seed + 5) in
  let three_vc = ref 0 in
  for _ = 1 to trials do
    let g = Gen.barabasi_albert rng ~n:150 ~nmin:3 in
    if Separation.is_three_vertex_connected g then incr three_vc
  done;
  Printf.printf
    "BA(nmin=3): fraction 3-vertex-connected: paper 87.8%% -> ours %.1f%% (%d trials)\n"
    (100.0 *. float_of_int !three_vc /. float_of_int trials)
    trials;
  let lt3 = ref [] in
  for _ = 1 to trials do
    let g = Gen.barabasi_albert rng ~n:150 ~nmin:2 in
    lt3 := (Stats.summary g).Stats.degree_lt3_frac :: !lt3
  done;
  Printf.printf
    "BA(nmin=2): avg fraction of degree<3 nodes: paper 49.2%% -> ours %.1f%%\n"
    (100.0 *. Stats.mean !lt3)

(* ------------------------------------------------------------------ *)
(* Perf: Bechamel micro-benchmarks of the core algorithms              *)

let perf cfg =
  section "Perf: micro-benchmarks (Bechamel, monotonic clock)";
  let open Bechamel in
  let rng = Prng.create cfg.seed in
  let ba = Gen.barabasi_albert rng ~n:150 ~nmin:3 in
  let er = Gen.until_connected (fun () -> Gen.erdos_renyi rng ~n:150 ~p:0.039) in
  let ebone = Isp.generate rng (List.nth Isp.rocketfuel 1) in
  let ba_net = Mmp.as_net ba in
  let tests =
    [
      Test.make ~name:"bridges/BA150" (Staged.stage (fun () -> Bridges.bridges ba));
      Test.make ~name:"biconnected/BA150"
        (Staged.stage (fun () -> Biconnected.decompose ba));
      Test.make ~name:"3vc-test/BA150"
        (Staged.stage (fun () -> Separation.is_three_vertex_connected ba));
      Test.make ~name:"triconnected/ER150"
        (Staged.stage (fun () -> Triconnected.decompose er));
      Test.make ~name:"mmp/ER150" (Staged.stage (fun () -> Mmp.place er));
      Test.make ~name:"mmp/Ebone172" (Staged.stage (fun () -> Mmp.place ebone));
      Test.make ~name:"identifiability/BA150"
        (Staged.stage (fun () -> Identifiability.network_identifiable ba_net));
    ]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg_b =
    Benchmark.cfg ~limit:2000
      ~quota:(Time.second (if cfg.full then 2.0 else 0.5))
      ~kde:None ()
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg_b [ instance ] test in
      let analyzed = Analyze.all ols instance results in
      Hashtbl.fold (fun name ols_result acc -> (name, ols_result) :: acc)
        analyzed []
      |> List.sort (fun (a, _) (b, _) -> String.compare a b)
      |> List.iter (fun (name, ols_result) ->
             match Analyze.OLS.estimates ols_result with
             | Some [ ns ] -> Printf.printf "%-24s %12.0f ns/run\n" name ns
             | Some _ | None -> Printf.printf "%-24s (no estimate)\n" name))
    tests

(* ------------------------------------------------------------------ *)

(* ------------------------------------------------------------------ *)
(* Ablations: design choices called out in DESIGN.md §6                *)

let cpu_time f =
  let t0 = Sys.time () in
  let r = f () in
  (r, Sys.time () -. t0)

let ablation cfg =
  section "Ablation A1: algorithm scaling on BA(nmin=3) graphs";
  let sizes = if cfg.full then [ 100; 200; 400; 800; 1600 ] else [ 100; 200; 400 ] in
  Printf.printf "%-8s %12s %14s %12s %16s\n" "|V|" "3vc-test(s)"
    "triconnected(s)" "mmp(s)" "identifiable(s)";
  List.iter
    (fun n ->
      let rng = Prng.create (cfg.seed + n) in
      let g = Gen.barabasi_albert rng ~n ~nmin:3 in
      let _, t3vc = cpu_time (fun () -> Separation.is_three_vertex_connected g) in
      let _, ttri = cpu_time (fun () -> Triconnected.decompose g) in
      let monitors, tmmp = cpu_time (fun () -> Mmp.place g) in
      let net = Net.create g ~monitors:(Graph.NodeSet.elements monitors) in
      let _, tid = cpu_time (fun () -> Identifiability.network_identifiable net) in
      Printf.printf "%-8d %12.3f %14.3f %12.3f %16.3f\n" n t3vc ttri tmmp tid)
    sizes;
  print_endline
    "expected: linear growth of the 3vc test (Hopcroft-Tarjan path search);\n\
     near-quadratic growth of the triconnected splitter's pair sweep, vs the\n\
     paper's linear-time references [27]-[29] (documented substitution).";

  section
    "Ablation A2: 3-vertex-connectivity backends (Hopcroft-Tarjan vs max-flow Menger)";
  let trials = if cfg.full then 30 else 10 in
  let rng = Prng.create (cfg.seed + 13) in
  let agree = ref 0 and search_t = ref 0.0 and flow_t = ref 0.0 in
  for _ = 1 to trials do
    let g = Gen.random_connected rng ~n:40 ~extra:(20 + Prng.int rng 60) in
    let a, ts = cpu_time (fun () -> Separation.is_three_vertex_connected g) in
    let b, tf = cpu_time (fun () -> Connectivity.is_k_vertex_connected g 3) in
    if a = b then incr agree;
    search_t := !search_t +. ts;
    flow_t := !flow_t +. tf
  done;
  Printf.printf
    "agreement: %d/%d; path search %.1f ms total, max-flow %.1f ms total\n" !agree
    trials (1000.0 *. !search_t) (1000.0 *. !flow_t);

  section "Ablation A3: controllable routing (MMP) vs fixed shortest-path routing";
  Printf.printf "%-10s %8s %14s %14s %12s\n" "model" "kMMP"
    "kappa(greedy)" "rank/links" "coverage";
  List.iter
    (fun (name, g) ->
      let kmmp = Graph.NodeSet.cardinal (Mmp.place g) in
      let greedy = Fixed_routing.greedy_place g in
      let rank = Fixed_routing.rank_of g ~monitors:greedy in
      let ident = Fixed_routing.identifiable_links g ~monitors:greedy in
      Printf.printf "%-10s %8d %14d %10d/%-4d %11.0f%%\n" name kmmp
        (List.length greedy) rank (Graph.n_edges g)
        (100.0
        *. float_of_int (Graph.EdgeSet.cardinal ident)
        /. float_of_int (Graph.n_edges g)))
    [
      ("BA30", Gen.barabasi_albert (Prng.create (cfg.seed + 17)) ~n:30 ~nmin:3);
      ( "ER30",
        Gen.until_connected (fun () ->
            Gen.erdos_renyi (Prng.create (cfg.seed + 19)) ~n:30 ~p:0.2) );
      ("grid5x5", Gen.grid 5 5);
    ];
  print_endline
    "expected: fixed routing needs an order of magnitude more monitors than\n\
     MMP to reach its best coverage (and on some topologies full coverage\n\
     is unattainable at any size) -- the regime where minimum placement is\n\
     NP-hard (refs [22,23] of the paper).";

  section "Ablation A4: noisy-measurement convergence (sigma = 1.0)";
  let reps = [ 1; 10; 100; 1000 ] in
  Printf.printf "%-12s" "repetitions";
  List.iter (fun r -> Printf.printf " %10d" r) reps;
  print_newline ();
  let rng = Prng.create (cfg.seed + 23) in
  let net = Paper.fig1 in
  let truth = Measurement.random_weights ~lo:10 ~hi:50 rng (Net.graph net) in
  Printf.printf "%-12s" "rmse (fig1)";
  List.iter
    (fun repetitions ->
      match Noisy.recover ~rng net truth ~sigma:1.0 ~repetitions with
      | Some est -> Printf.printf " %10.4f" (Noisy.rmse est)
      | None -> Printf.printf " %10s" "n/a")
    reps;
  print_newline ();
  print_endline "expected: error shrinks roughly as 1/sqrt(repetitions).";
  Printf.printf "%-12s" "rmse (LS+30)";
  List.iter
    (fun repetitions ->
      match
        Noisy.recover_least_squares ~rng ~extra_paths:30 net truth ~sigma:1.0
          ~repetitions
      with
      | Some est -> Printf.printf " %10.4f" (Noisy.rmse est)
      | None -> Printf.printf " %10s" "n/a")
    reps;
  print_newline ();
  print_endline
    "the overdetermined least-squares estimator trades 30 extra paths for\n\
     a lower error at equal repetitions.";

  section "Ablation A6: single-failure robustness of minimum vs padded placements";
  let g = Gen.barabasi_albert (Prng.create (cfg.seed + 29)) ~n:40 ~nmin:3 in
  let mmp = Graph.NodeSet.elements (Mmp.place g) in
  (* Two padding strategies: hubs (highest degree) vs the minimum-degree
     nodes — a link failure at a degree-3 node drops it below the
     degree-3 necessary condition unless that very node is a monitor,
     so only the second strategy can help. *)
  let pad_by order k =
    let extras =
      Graph.nodes g
      |> List.filter (fun v -> not (List.mem v mmp))
      |> List.sort order
      |> List.filteri (fun i _ -> i < k)
    in
    extras @ mmp
  in
  let by_degree_desc a b = compare (Graph.degree g b) (Graph.degree g a) in
  let by_degree_asc a b = compare (Graph.degree g a) (Graph.degree g b) in
  List.iter
    (fun (name, monitors) ->
      let r = Robustness.analyze (Net.create g ~monitors) in
      Printf.printf "%-26s kappa=%-3d critical links %2d/%d, critical nodes %2d/%d\n"
        name (List.length monitors)
        (Graph.EdgeSet.cardinal r.Robustness.critical_links)
        r.Robustness.total_links
        (Graph.NodeSet.cardinal r.Robustness.critical_nodes)
        r.Robustness.total_nodes)
    [
      ("MMP (minimum)", mmp);
      ("MMP + 8 hub monitors", pad_by by_degree_desc 8);
      ("MMP + 8 low-deg monitors", pad_by by_degree_asc 8);
    ];
  print_endline
    "minimum placements are fragile by design; padding helps only when it\n\
     targets the minimum-degree nodes (a failure beside a degree-3 node\n\
     drops it below the necessary degree bound unless it monitors itself).";

  section "Ablation A5: exact rational vs floating-point solve";
  let plan = Solver.independent_paths ~rng net in
  Inv.check (fun () -> Invariant.check_plan net plan);
  let r = Measurement.matrix plan.Solver.space plan.Solver.paths in
  let c = Measurement.measure_all truth plan.Solver.paths in
  let reps = if cfg.full then 200 else 50 in
  let _, texact =
    cpu_time (fun () ->
        for _ = 1 to reps do
          ignore (Matrix.solve r c)
        done)
  in
  let fr = Nettomo_linalg.Fmatrix.of_matrix r in
  let fc = Array.map Q.to_float c in
  let _, tfloat =
    cpu_time (fun () ->
        for _ = 1 to reps do
          ignore (Nettomo_linalg.Fmatrix.solve fr fc)
        done)
  in
  Printf.printf
    "fig1 11x11 solve x%d: exact %.1f ms, float %.1f ms (x%.0f)\n" reps
    (1000.0 *. texact) (1000.0 *. tfloat)
    (texact /. Float.max 1e-9 tfloat);
  print_endline
    "exactness is kept for identifiability (a rank property); floats serve\n\
     only the statistical estimators."

(* ------------------------------------------------------------------ *)
(* Churn: the incremental session engine vs from-scratch recomputation *)

module Session = Nettomo_engine.Session

(* Shadow world used to generate valid delta streams and the per-round
   network snapshots for the from-scratch baseline (both untimed). *)
type churn_world = { mutable cg : Graph.t; mutable cmon : Graph.NodeSet.t }

let churn_apply w d =
  (match d with
  | Session.Add_node n -> w.cg <- Graph.add_node w.cg n
  | Session.Remove_node n ->
      w.cg <- Graph.remove_node w.cg n;
      w.cmon <- Graph.NodeSet.remove n w.cmon
  | Session.Add_link (u, v) -> w.cg <- Graph.add_edge w.cg u v
  | Session.Remove_link (u, v) -> w.cg <- Graph.remove_edge w.cg u v
  | Session.Set_monitors ms -> w.cmon <- Graph.NodeSet.of_list ms);
  Net.create w.cg ~monitors:(Graph.NodeSet.elements w.cmon)

(* Access churn: nodes join and leave at the network edge (a fresh leaf
   attaches to a random gateway, previously attached leaves detach) and
   the monitor set is occasionally re-declared. The biconnected core is
   never touched, which is exactly the regime the per-block
   decomposition cache targets. *)
let access_stream rng g0 mon0 rounds =
  let base = Graph.node_array g0 in
  let monset = Graph.NodeSet.of_list mon0 in
  let extra =
    (* a deterministic non-monitor base node for monitor-set toggles *)
    List.find (fun v -> not (Graph.NodeSet.mem v monset)) (Graph.nodes g0)
  in
  let next = ref (1 + Array.fold_left max 0 base) in
  let attached = ref [] in
  List.init rounds (fun _ ->
      let u = Prng.int rng 100 in
      if u < 45 || !attached = [] then (
        let fresh = !next in
        incr next;
        attached := fresh :: !attached;
        Session.Add_link (fresh, base.(Prng.int rng (Array.length base))))
      else if u < 85 then (
        match !attached with
        | fresh :: rest ->
            attached := rest;
            Session.Remove_node fresh
        | [] -> assert false)
      else if u < 93 then Session.Set_monitors (extra :: mon0)
      else Session.Set_monitors mon0)

(* Core churn: links inside the fixed node set blink off and back on
   (never a bridge, so the network stays connected). Each removal
   rewrites the biconnected component containing the link, so the block
   cache misses there and only revisited states amortize. *)
let core_stream rng g0 rounds =
  let w = ref g0 in
  let removed = ref None in
  List.init rounds (fun _ ->
      match !removed with
      | Some (u, v) ->
          removed := None;
          w := Graph.add_edge !w u v;
          Session.Add_link (u, v)
      | None ->
          let bridges = Bridges.bridges !w in
          let candidates =
            List.filter
              (fun e -> not (Graph.EdgeSet.mem e bridges))
              (Graph.edges !w)
          in
          let u, v = List.nth candidates (Prng.int rng (List.length candidates)) in
          removed := Some (u, v);
          w := Graph.remove_edge !w u v;
          Session.Remove_link (u, v))

let wall_time f =
  let t0 = Obs.Clock.now () in
  let r = f () in
  (r, Obs.Clock.now () -. t0)

let rec take n = function
  | x :: rest when n > 0 -> x :: take (n - 1) rest
  | _ -> []

(* The churn experiments' maps: a connected ER(150, 0.039) and Ebone;
   coverage-churn adds Exodus. *)
let churn_maps cfg =
  [
    ( "ER150",
      let rng = Prng.create (cfg.seed + 41) in
      Gen.until_connected (fun () -> Gen.erdos_renyi rng ~n:150 ~p:0.039) );
    ("Ebone", Isp.generate (Prng.create (cfg.seed + 43)) (List.nth Isp.rocketfuel 1));
  ]

(* One pass of a churn experiment: a fresh session over [net0] applies
   [stream], answering [query] after every delta. Returns the answers
   and the session. *)
let replay ~what ?store ~seed net0 query stream =
  let s = Session.create ~seed ?store net0 in
  let answers =
    List.map
      (fun d ->
        (match Session.apply s d with
        | Ok () -> ()
        | Error m -> failwith (what ^ ": invalid delta: " ^ m));
        query s)
      stream
  in
  (answers, s)

(* Under NETTOMO_CHECK, a pass over the stream's first 12 rounds runs
   the session's differential checks before the timed passes. *)
let check_prefix pass stream = if Inv.enabled () then ignore (pass (take 12 stream))

(* The network after each delta of [stream], for the from-scratch
   side. *)
let scratch_nets net0 stream =
  let w = { cg = Net.graph net0; cmon = Net.monitors net0 } in
  List.map (churn_apply w) stream

let identifiable_and_mmp s = (Session.identifiable s, Session.mmp s)

let same_identifiable_and_mmp (i1, m1) (i2, m2) =
  Session.equal_result Bool.equal i1 i2
  && Session.equal_result Session.equal_report m1 m2

let churn_workload cfg ~topology ~workload net0 stream =
  let run_incremental stream =
    let answers, s =
      replay ~what:"churn" ~seed:cfg.seed net0 identifiable_and_mmp stream
    in
    (answers, Session.stats s)
  in
  check_prefix run_incremental stream;
  (* Both sides are timed with the invariant layer forced off — the
     differential would otherwise make the incremental side recompute
     everything from scratch too. Answer equality is asserted below
     unconditionally, which is the same check minus the timing skew. *)
  let nets = scratch_nets net0 stream in
  (* Lowpoint searches and the half-edges they scanned over the timed
     incremental run: deterministic work counts, gated by bench diff
     where wall time cannot be. *)
  let dfs_work () =
    ( Obs.Metrics.counter_value Biconnected.dfs_runs,
      Obs.Metrics.counter_value Biconnected.adjacency_scanned )
  in
  let dfs0, scanned0 = dfs_work () in
  let (incremental, stats), inc_s =
    wall_time (fun () -> Inv.with_enabled false (fun () -> run_incremental stream))
  in
  let dfs1, scanned1 = dfs_work () in
  let scratch, scr_s =
    wall_time (fun () ->
        Inv.with_enabled false (fun () ->
            List.map
              (fun n -> (Session.Scratch.identifiable n, Session.Scratch.mmp n))
              nets))
  in
  let identical = List.for_all2 same_identifiable_and_mmp incremental scratch in
  if not identical then
    Inv.violationf "churn %s/%s: incremental answers differ from scratch"
      topology workload;
  let rounds = List.length stream in
  let speedup = scr_s /. Float.max 1e-9 inc_s in
  Printf.printf
    "%-10s %-8s %5d rounds: incremental %8.3f s, from-scratch %8.3f s -> x%.1f\n"
    topology workload rounds inc_s scr_s speedup;
  Printf.printf
    "%-21s memo %d, degree-shortcut %d, carry %d, block hit/miss %d/%d, full %d\n"
    "" stats.Session.memo_hits stats.Session.degree_shortcuts
    stats.Session.verdict_carries stats.Session.block_hits
    stats.Session.block_misses stats.Session.full_computes;
  Report.add_trials cfg.report rounds;
  Report.add_series cfg.report
    (Jsonx.Obj
       [
         ("topology", Jsonx.String topology);
         ("workload", Jsonx.String workload);
         ("rounds", Jsonx.Int rounds);
         ("incremental_s", Jsonx.Float inc_s);
         ("scratch_s", Jsonx.Float scr_s);
         ("speedup", Jsonx.Float speedup);
         ("answers_identical", Jsonx.Bool identical);
         ("graph_lowpoint_dfs_total", Jsonx.Int (dfs1 - dfs0));
         ("graph_adjacency_scanned_total", Jsonx.Int (scanned1 - scanned0));
       ])

let churn cfg =
  section
    "Churn: session engine (incremental) vs from-scratch, per-round\n\
     identifiability + MMP placement under topology deltas";
  let rounds = if cfg.full then 240 else 60 in
  List.iter
    (fun (topology, g) ->
      let monitors = Graph.NodeSet.elements (Mmp.place g) in
      let net = Net.create g ~monitors in
      let rng = Prng.create (cfg.seed + 47 + Hashtbl.hash topology) in
      churn_workload cfg ~topology ~workload:"access" net
        (access_stream rng g monitors rounds);
      let rng = Prng.create (cfg.seed + 53 + Hashtbl.hash topology) in
      churn_workload cfg ~topology ~workload:"core" net (core_stream rng g rounds))
    (churn_maps cfg);
  print_endline
    "access churn leaves the biconnected core intact (block cache hits +\n\
     O(1) degree/memo shortcuts); core churn rewrites the touched block\n\
     each round, so only revisited states amortize."

(* ------------------------------------------------------------------ *)
(* Churn-warm: the persistent store across process restarts            *)

module Store = Nettomo_store.Store

let fresh_store_dir tag =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "nettomo-bench-%s-%d" tag (Unix.getpid ()))

let rm_store_dir dir =
  (match Sys.readdir dir with
  | names ->
      Array.iter
        (fun n ->
          try Sys.remove (Filename.concat dir n) with Sys_error _ -> ())
        names
  | exception Sys_error _ -> ());
  try Unix.rmdir dir with Unix.Unix_error _ -> ()

(* The access-churn workload replayed twice against the same store
   directory with a fresh session each time — the restart scenario the
   store exists for. The cold pass computes and publishes every
   artifact; the warm pass starts with empty in-memory memos and must
   refill them from disk. Answers are asserted identical, and hit rates
   go into the JSON report. *)
let churn_warm cfg =
  section
    "Churn-warm: cold vs warm persistent artifact store (fresh session per\n\
     pass, per-round identifiability + MMP under access churn)";
  let rounds = if cfg.full then 240 else 60 in
  List.iter
    (fun (topology, g) ->
      let monitors = Graph.NodeSet.elements (Mmp.place g) in
      let net0 = Net.create g ~monitors in
      let stream =
        access_stream
          (Prng.create (cfg.seed + 59 + Hashtbl.hash topology))
          g monitors rounds
      in
      let dir = fresh_store_dir topology in
      rm_store_dir dir;
      let run_pass stream =
        let store = Store.open_dir dir in
        let answers, _ =
          replay ~what:"churn-warm" ~store ~seed:cfg.seed net0 identifiable_and_mmp
            stream
        in
        (answers, Store.stats store)
      in
      (* The checked prefix runs twice, so warm store hits pass through
         the session's differential invariant too; then the store is
         reset and both passes are timed with the invariant layer off
         (as the churn experiment does). *)
      check_prefix run_pass stream;
      check_prefix run_pass stream;
      if Inv.enabled () then rm_store_dir dir;
      let (cold, cold_st), cold_s =
        wall_time (fun () -> Inv.with_enabled false (fun () -> run_pass stream))
      in
      let (warm, warm_st), warm_s =
        wall_time (fun () -> Inv.with_enabled false (fun () -> run_pass stream))
      in
      let identical = List.for_all2 same_identifiable_and_mmp cold warm in
      if not identical then
        Inv.violationf "churn-warm %s: warm answers differ from cold" topology;
      let rate st =
        let total = st.Store.hits + st.Store.misses in
        if total = 0 then 0.0
        else float_of_int st.Store.hits /. float_of_int total
      in
      let speedup = cold_s /. Float.max 1e-9 warm_s in
      Printf.printf
        "%-10s %5d rounds: cold %8.3f s (store hits %d/%d, puts %d)\n"
        topology rounds cold_s cold_st.Store.hits
        (cold_st.Store.hits + cold_st.Store.misses)
        cold_st.Store.puts;
      Printf.printf
        "%-10s %5s         warm %8.3f s (store hits %d/%d, puts %d) -> x%.1f\n"
        "" "" warm_s warm_st.Store.hits
        (warm_st.Store.hits + warm_st.Store.misses)
        warm_st.Store.puts speedup;
      Report.add_trials cfg.report (2 * rounds);
      let series =
        Jsonx.Obj
          [
            ("topology", Jsonx.String topology);
            ("workload", Jsonx.String "access");
            ("rounds", Jsonx.Int rounds);
            ("cold_s", Jsonx.Float cold_s);
            ("warm_s", Jsonx.Float warm_s);
            ("speedup", Jsonx.Float speedup);
            ("cold_store_hits", Jsonx.Int cold_st.Store.hits);
            ("cold_store_misses", Jsonx.Int cold_st.Store.misses);
            ("cold_hit_rate", Jsonx.Float (rate cold_st));
            ("cold_store_puts", Jsonx.Int cold_st.Store.puts);
            ("warm_store_hits", Jsonx.Int warm_st.Store.hits);
            ("warm_store_misses", Jsonx.Int warm_st.Store.misses);
            ("warm_hit_rate", Jsonx.Float (rate warm_st));
            ("answers_identical", Jsonx.Bool identical);
          ]
      in
      Report.add_series cfg.report series;
      (* Third artifact class: a bench baseline blob. The measured
         series is published under a stable key; with NETTOMO_STORE set
         the baselines accumulate across bench runs in that directory
         (the temp measurement store above is always discarded). *)
      let baseline_store =
        match Sys.getenv_opt "NETTOMO_STORE" with
        | Some d when not (String.equal d "") -> Store.open_dir d
        | Some _ | None -> Store.open_dir dir
      in
      let key = Printf.sprintf "bench-churn-warm-%s" topology in
      (match Store.find baseline_store key with
      | Some prev -> (
          match Jsonx.parse prev with
          | Ok json -> (
              match Jsonx.member "speedup" json with
              | Some (Jsonx.Float s) ->
                  Printf.printf "%-10s %5s         previous baseline speedup: x%.1f\n"
                    "" "" s
              | Some _ | None -> ())
          | Error _ -> ())
      | None -> ());
      Store.put baseline_store key (Jsonx.to_string series);
      rm_store_dir dir)
    (churn_maps cfg);
  print_endline
    "the warm pass replaces every full analysis with a store read; the\n\
     residual time is deltas, O(1) shortcuts and payload decoding."

(* ------------------------------------------------------------------ *)
(* Coverage-churn: per-link identifiability under churn, and the       *)
(* greedy monitor-augmentation planner vs MMP                          *)

module Coverage = Nettomo_coverage.Coverage

(* Everything that goes into the JSON series here is a deterministic
   function of (topology, seed): coverage fractions, session counters
   (the session runs serially), and planner placements. Wall times are
   printed but kept out of the series so the report stays byte-identical
   across --jobs — the same rule the pool contract gives the
   fraction sweep, which does fan out. *)
let coverage_churn cfg =
  section
    "Coverage-churn: per-link identifiability (coverage) under topology\n\
     churn, and greedy monitor augmentation vs MMP";
  let rounds = if cfg.full then 120 else 40 in
  List.iter
    (fun (topology, g) ->
      let mmp = Graph.NodeSet.elements (Mmp.place g) in
      let m = List.length mmp in
      let net0 = Net.create g ~monitors:mmp in
      let stream =
        core_stream (Prng.create (cfg.seed + 61 + Hashtbl.hash topology)) g rounds
      in
      let run_incremental stream =
        let answers, s =
          replay ~what:"coverage-churn" ~seed:cfg.seed net0 Session.coverage stream
        in
        (answers, Session.stats s)
      in
      (* The checked prefix replays the first rounds of (b). *)
      check_prefix run_incremental stream;
      (* Rows that raised the rank, dependent rows, searches whose basis
         switched to rationals, and stored basis rows rewritten by
         accepted ones, over this topology's run, counted from here so
         the checked prefix is left out: deterministic work counts (the
         pool only reorders atomic increments), the same with the checks
         on or off, gated by bench diff where wall time cannot be. *)
      let solver_work () =
        ( Obs.Metrics.counter_value Solver.exact_rows,
          Obs.Metrics.counter_value Solver.prefilter_rejects,
          Obs.Metrics.counter_value Solver.rational_fallbacks,
          Obs.Metrics.counter_value Solver.eliminations )
      in
      let exact0, rejects0, fallbacks0, elims0 = solver_work () in
      (* a) coverage as a function of the monitor budget: prefixes of
         the MMP placement, classified independently over the pool. *)
      let fractions = [| 0.25; 0.5; 0.75; 1.0 |] in
      let points =
        Pool.map cfg.pool
          (fun f ->
            let k = max 2 (int_of_float (ceil (f *. float_of_int m))) in
            let net = Net.create g ~monitors:(take k mmp) in
            match Session.Scratch.coverage ~seed:cfg.seed net with
            | Ok r -> (f, k, Coverage.coverage r, Coverage.mode_to_string r.Coverage.mode)
            | Error msg -> failwith ("coverage-churn: " ^ msg))
          fractions
      in
      Array.iter
        (fun (f, k, cov, mode) ->
          Printf.printf "%-10s budget %.2f (%3d/%d monitors): coverage %.3f (%s)\n"
            topology f k m cov mode)
        points;
      (* b) session coverage under core churn, incremental vs scratch. *)
      let nets = scratch_nets net0 stream in
      let (incremental, stats), inc_s =
        wall_time (fun () ->
            Inv.with_enabled false (fun () -> run_incremental stream))
      in
      let scratch, scr_s =
        wall_time (fun () ->
            Inv.with_enabled false (fun () ->
                List.map (fun n -> Session.Scratch.coverage ~seed:cfg.seed n) nets))
      in
      let identical =
        List.for_all2
          (Session.equal_result Session.equal_coverage)
          incremental scratch
      in
      if not identical then
        Inv.violationf "coverage-churn %s: incremental answers differ from scratch"
          topology;
      Printf.printf
        "%-10s churn    %5d rounds: incremental %8.3f s, from-scratch %8.3f s\n"
        topology rounds inc_s scr_s;
      (* c) the greedy planner from a cold two-monitor start vs MMP. *)
      let net2 = Net.create g ~monitors:(take 2 mmp) in
      let plan, plan_s =
        wall_time (fun () ->
            match
              Session.Scratch.augment ~seed:cfg.seed ~k:(Graph.n_nodes g) net2
            with
            | Ok p -> p
            | Error msg -> failwith ("coverage-churn: " ^ msg))
      in
      let greedy_total = 2 + List.length plan.Coverage.added in
      Printf.printf
        "%-10s planner: MMP %d monitors, greedy %d (full %b, coverage %.3f -> \
         %.3f) in %.1f s\n"
        topology m greedy_total plan.Coverage.full plan.Coverage.coverage_before
        plan.Coverage.coverage_after plan_s;
      let exact1, rejects1, fallbacks1, elims1 = solver_work () in
      Report.add_trials cfg.report (rounds + Array.length fractions);
      Report.add_series cfg.report
        (Jsonx.Obj
           [
             ("topology", Jsonx.String topology);
             ("mmp_monitors", Jsonx.Int m);
             ( "budget_curve",
               Jsonx.List
                 (Array.to_list points
                 |> List.map (fun (f, k, cov, mode) ->
                        Jsonx.Obj
                          [
                            ("fraction", Jsonx.Float f);
                            ("monitors", Jsonx.Int k);
                            ("coverage", Jsonx.Float cov);
                            ("mode", Jsonx.String mode);
                          ])) );
             ("churn_rounds", Jsonx.Int rounds);
             ("answers_identical", Jsonx.Bool identical);
             ("memo_hits", Jsonx.Int stats.Session.memo_hits);
             ("full_computes", Jsonx.Int stats.Session.full_computes);
             ("greedy_monitors", Jsonx.Int greedy_total);
             ("greedy_full", Jsonx.Bool plan.Coverage.full);
             ("coverage_before", Jsonx.Float plan.Coverage.coverage_before);
             ("coverage_after", Jsonx.Float plan.Coverage.coverage_after);
             ("solver_exact_rows_total", Jsonx.Int (exact1 - exact0));
             ("solver_prefilter_rejects_total", Jsonx.Int (rejects1 - rejects0));
             ("solver_rational_fallbacks_total", Jsonx.Int (fallbacks1 - fallbacks0));
             ("solver_eliminations_total", Jsonx.Int (elims1 - elims0));
           ]))
    (churn_maps cfg
    @ [ ("Exodus", Isp.generate (Prng.create (cfg.seed + 47)) (List.nth Isp.rocketfuel 3)) ]);
  print_endline
    "the structural classifier keeps coverage queries cheap at scale (no\n\
     rational elimination outside small pruned subgraphs), so per-round\n\
     coverage under churn is viable; the greedy planner lands within two\n\
     monitors of MMP while reporting marginal coverage along the way."

(* ------------------------------------------------------------------ *)
(* Solve-scale: constructive walk planning + linear-time recovery      *)

module Measure_paths = Nettomo_measure.Paths
module Measure_solve = Nettomo_measure.Solve

(* Section 7.3.1-style generator sweep, pushed to 10^4 nodes: plan the
   constructive walk family, simulate the campaign against integer
   ground truth and recover every metric by substitution. Everything in
   the series except the timings is a deterministic function of
   (topology, seed): node/link/measurement counts and the exactness of
   the recovery. The timings are kept in separate fields so CI can gate
   the deterministic remainder with `bench diff --ignore`. *)
let solve_scale cfg =
  section
    "Solve-scale: constructive measurement planning + O(n+m) recovery,\n\
     150 -> 10^4 nodes (one walk measurement per link, no elimination)";
  let isp10k =
    (* An AS7018-shaped spec scaled to 10^4 nodes: same dangling and
       tandem fractions, link density just under AT&T's. *)
    {
      Isp.name = "ISP10k";
      nodes = 10_000;
      links = 30_000;
      dangling_frac = 0.28;
      tandem_frac = 0.05;
      paper_r_mmp = 0.0;
    }
  in
  let topologies =
    [
      ( "ER150",
        fun rng ->
          Gen.until_connected (fun () -> Gen.erdos_renyi rng ~n:150 ~p:0.039) );
      ("BA1000", fun rng -> Gen.barabasi_albert rng ~n:1000 ~nmin:3);
      ( "Waxman3000",
        fun rng ->
          Gen.until_connected (fun () ->
              Gen.waxman_sparse rng ~n:3000 ~alpha:0.6 ~beta:0.02) );
      ("BA10000", fun rng -> Gen.barabasi_albert rng ~n:10_000 ~nmin:2);
      ( "ER10000",
        fun rng ->
          Gen.until_connected (fun () ->
              Gen.erdos_renyi_sparse rng ~n:10_000 ~p:0.0015) );
      ("ISP10000", fun rng -> Isp.generate rng isp10k);
    ]
  in
  Printf.printf "%-12s %8s %8s %8s %10s %10s %8s\n" "topology" "|V|" "|L|"
    "walks" "plan(s)" "solve(s)" "exact";
  List.iter
    (fun (topology, draw) ->
      let rng = Prng.create (cfg.seed + 67 + Hashtbl.hash topology) in
      let g = draw rng in
      (* Two monitors suffice for the walk family; the two smallest
         node ids keep the plan a pure function of the topology. *)
      let monitors = take 2 (Graph.nodes g) in
      let net = Net.create g ~monitors in
      let truth = Session.Scratch.truth_of ~seed:cfg.seed net in
      let plan, plan_s =
        wall_time (fun () ->
            match Measure_paths.plan net with
            | Ok p -> p
            | Error msg -> failwith ("solve-scale: " ^ msg))
      in
      (* The flat graph is verified inside [plan]; the walk family here,
         outside the timed region. *)
      Inv.check (fun () -> Measure_paths.Invariant.check net plan);
      let w =
        Array.map Q.to_float
          (Array.map (Measurement.weight truth)
             (Measurement.link_order (Measurement.space g)))
      in
      let sol, solve_s =
        wall_time (fun () ->
            let values = Measure_paths.measure plan w in
            Measure_solve.recover plan values)
      in
      if sol.Measure_solve.measurements <> Graph.n_edges g then
        Inv.violationf "solve-scale %s: %d walks for %d links" topology
          sol.Measure_solve.measurements (Graph.n_edges g);
      let exact =
        Array.for_all2
          (fun e x -> Float.equal x (Q.to_float (Measurement.weight truth e)))
          sol.Measure_solve.links sol.Measure_solve.metrics
      in
      if not exact then
        Inv.violationf "solve-scale %s: recovery differs from ground truth"
          topology;
      Printf.printf "%-12s %8d %8d %8d %10.3f %10.3f %8b\n" topology
        (Graph.n_nodes g) (Graph.n_edges g) sol.Measure_solve.measurements
        plan_s solve_s exact;
      Report.add_trials cfg.report 1;
      Report.add_series cfg.report
        (Jsonx.Obj
           [
             ("topology", Jsonx.String topology);
             ("nodes", Jsonx.Int (Graph.n_nodes g));
             ("links", Jsonx.Int (Graph.n_edges g));
             ("walks", Jsonx.Int sol.Measure_solve.measurements);
             ("recovery_exact", Jsonx.Bool exact);
             ("plan_s", Jsonx.Float plan_s);
             ("solve_s", Jsonx.Float solve_s);
           ]))
    topologies;
  print_endline
    "one measurement per link by construction; recovery is substitution\n\
     over tree potentials, so 10^4-node networks solve in well under a\n\
     second where the exact simple-path search stops at a few hundred."

(* ------------------------------------------------------------------ *)
(* Serve-soak: the socket front door under concurrent client load      *)

module Server = Nettomo_engine.Server
module Protocol = Nettomo_engine.Protocol

let soak_req fields = Jsonx.to_string (Jsonx.Obj fields)

(* Pipelined client: send every request, half-close, read the whole
   transcript. The server never blocks on a writer, so this cannot
   deadlock at any workload size. *)
let soak_client path requests =
  let ic, oc = Unix.open_connection (Unix.ADDR_UNIX path) in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      output_string oc (String.concat "\n" requests ^ "\n");
      flush oc;
      Unix.shutdown_connection ic;
      In_channel.input_all ic)

let serve_soak cfg ~clients =
  section
    (Printf.sprintf
       "Serve-soak: %d concurrent socket clients against one ER150 server\n\
        (every transcript byte-checked against its single-client replay)"
       clients);
  let rounds = if cfg.full then 48 else 12 in
  let rng = Prng.create (cfg.seed + 41) in
  let g = Gen.until_connected (fun () -> Gen.erdos_renyi rng ~n:150 ~p:0.039) in
  let monitors = Graph.NodeSet.elements (Mmp.place g) in
  let load_line =
    soak_req
      [
        ("id", Jsonx.Int 1);
        ("op", Jsonx.String "load");
        ("edges", Jsonx.String (Edgelist.to_string g));
        ("monitors", Jsonx.List (List.map (fun m -> Jsonx.Int m) monitors));
      ]
  in
  (* Clients cycle through a few distinct workload shapes: each shape
     toggles its own non-edge at node 0, so concurrent sessions diverge
     and a cross-connection leak cannot cancel out. The replay oracle
     runs once per shape, so its cost stays flat as --clients grows. *)
  let shapes = min clients 8 in
  let spare =
    let rec pick v acc =
      if List.length acc >= shapes then Array.of_list (List.rev acc)
      else if v >= Graph.n_nodes g then
        failwith "serve-soak: node 0 has too few non-edges"
      else pick (v + 1) (if Graph.mem_edge g 0 v then acc else v :: acc)
    in
    pick 1 []
  in
  (* No "plan" here: path planning on ER150 is minutes of CPU per call,
     which would turn a concurrency soak into a single-query benchmark.
     These three keep the pool busy at millisecond granularity. *)
  let queries = [| "identifiable"; "mmp"; "stats" |] in
  let workload s =
    let v = spare.(s) in
    let rec steps i acc =
      if i > rounds then List.rev acc
      else
        let action = if i mod 2 = 1 then "add_link" else "remove_link" in
        let d =
          soak_req
            [
              ("id", Jsonx.Int (2 * i));
              ("op", Jsonx.String "delta");
              ("action", Jsonx.String action);
              ("u", Jsonx.Int 0);
              ("v", Jsonx.Int v);
            ]
        in
        let q =
          soak_req
            [
              ("id", Jsonx.Int ((2 * i) + 1));
              ("op", Jsonx.String queries.((s + i) mod 3));
            ]
        in
        steps (i + 1) (q :: d :: acc)
    in
    load_line :: steps 1 []
  in
  let per_client = 1 + (2 * rounds) in
  let path =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "nettomo-bench-serve-%d.sock" (Unix.getpid ()))
  in
  (* slow_ms 0 captures every request: the ring-bound and capture
     counters below become load-independent, so bench diff can gate
     them without timing noise. *)
  Obs.Slow.clear ();
  let server =
    Server.create ~seed:cfg.seed ~emit_wall_ms:false
      ~max_conns:(clients + 4) ~slow_ms:0. ~pool:cfg.pool
      (Server.Unix_socket path)
  in
  let d = Domain.spawn (fun () -> Server.run server) in
  let transcripts = Array.make clients "" in
  let (), wall_s =
    wall_time (fun () ->
        let threads =
          List.init clients (fun k ->
              Thread.create
                (fun () ->
                  transcripts.(k) <-
                    soak_client path (workload (k mod shapes)))
                ())
        in
        List.iter Thread.join threads)
  in
  let served = Obs.Metrics.counter_value (Server.requests_total server) in
  let shed = Obs.Metrics.counter_value (Server.shed_total server) in
  let h = Server.request_latency server in
  let p50 = Obs.Metrics.histogram_quantile h 0.5 in
  let p95 = Obs.Metrics.histogram_quantile h 0.95 in
  let p99 = Obs.Metrics.histogram_quantile h 0.99 in
  Server.shutdown server;
  Domain.join d;
  (* The determinism oracle: one serial replay per workload shape,
     then byte-compare every connection's transcript against its
     shape's replay. *)
  let oracle =
    Array.init shapes (fun s ->
        let p = Protocol.create ~emit_wall_ms:false () in
        String.concat ""
          (List.map
             (fun r -> Protocol.handle_line p r ^ "\n")
             (workload s)))
  in
  let identical =
    Array.for_all Fun.id
      (Array.mapi
         (fun k t -> String.equal t oracle.(k mod shapes))
         transcripts)
  in
  if not identical then
    Inv.violationf
      "serve-soak: a transcript differs from its single-client replay";
  let slow_requests = Obs.Slow.length () in
  let slow_ring_bounded = slow_requests <= Obs.Slow.capacity () in
  let throughput = float_of_int served /. Float.max 1e-9 wall_s in
  Printf.printf
    "%d clients x %d requests: %d served (%d shed) in %.3f s -> %.0f req/s\n"
    clients per_client served shed wall_s throughput;
  Printf.printf "slow ring: %d captured (cap %d), bounded: %b\n"
    slow_requests (Obs.Slow.capacity ()) slow_ring_bounded;
  Printf.printf
    "request latency p50 %.2f ms, p95 %.2f ms, p99 %.2f ms (count %d)\n"
    (1000. *. p50) (1000. *. p95) (1000. *. p99)
    (Obs.Metrics.histogram_count h);
  Printf.printf "all transcripts equal single-client replay: %b\n"
    identical;
  Report.add_trials cfg.report served;
  Report.add_series cfg.report
    (Jsonx.Obj
       [
         ("topology", Jsonx.String "ER150");
         ("clients", Jsonx.Int clients);
         ("requests_per_client", Jsonx.Int per_client);
         ("requests_served", Jsonx.Int served);
         ("shed", Jsonx.Int shed);
         ("wall_s", Jsonx.Float wall_s);
         ("throughput_rps", Jsonx.Float throughput);
         ("latency_p50_s", Jsonx.Float p50);
         ("latency_p95_s", Jsonx.Float p95);
         ("latency_p99_s", Jsonx.Float p99);
         ("latency_count", Jsonx.Int (Obs.Metrics.histogram_count h));
         ("latency_sum_s", Jsonx.Float (Obs.Metrics.histogram_sum h));
         ("transcripts_identical", Jsonx.Bool identical);
         ("slow_requests", Jsonx.Int slow_requests);
         ("slow_ring_bounded", Jsonx.Bool slow_ring_bounded);
       ]);
  print_endline
    "one dispatcher domain multiplexes every connection; the shared\n\
     pool runs at most one in-flight request per connection, so each\n\
     transcript reproduces serially."

(* Every experiment by id, in the order a run without ids runs them.
   Tables and their RMP figures share generated topologies: a figure
   run without its table computes the table first. *)
let experiments cfg ~clients =
  let table2_pairs = ref None and table3_pairs = ref None in
  let pairs memo table =
    match !memo with
    | Some p -> p
    | None ->
        let p = table cfg in
        memo := Some p;
        p
  in
  [
    ("e1", fun () -> e1 cfg);
    ("e2", fun () -> e2 cfg);
    ("e3", fun () -> e3 cfg);
    ("e4", fun () -> e4 cfg);
    ("fig9", fun () -> fig9 cfg);
    ("fig10", fun () -> fig10 cfg);
    ("table2", fun () -> table2_pairs := Some (table2 cfg));
    ("fig11", fun () -> fig11 cfg (pairs table2_pairs table2));
    ("table3", fun () -> table3_pairs := Some (table3 cfg));
    ("fig12", fun () -> fig12 cfg (pairs table3_pairs table3));
    ("e11", fun () -> e11 cfg);
    ("ablation", fun () -> ablation cfg);
    ("churn", fun () -> churn cfg);
    ("churn-warm", fun () -> churn_warm cfg);
    ("coverage-churn", fun () -> coverage_churn cfg);
    ("solve-scale", fun () -> solve_scale cfg);
    ("serve-soak", fun () -> serve_soak cfg ~clients);
    ("perf", fun () -> perf cfg);
  ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let full = List.mem "--full" args in
  let str_opt flag =
    let rec find = function
      | f :: v :: _ when String.equal f flag -> Some v
      | _ :: rest -> find rest
      | [] -> None
    in
    find args
  in
  let int_opt flag default =
    Option.fold ~none:default ~some:int_of_string (str_opt flag)
  in
  let seed = int_opt "--seed" 7 in
  let jobs = int_opt "--jobs" 1 in
  let json_path = str_opt "--json" in
  let trace_path = str_opt "--trace" in
  let clients = int_opt "--clients" 32 in
  (* Tracing is always on in the harness: the per-phase span summaries
     feed the report, and --trace additionally dumps the raw spans. *)
  Obs.Trace.enable ();
  let pool = Pool.create ~jobs in
  let report = Report.create () in
  let cfg = { full; seed; pool; report } in
  let table = experiments cfg ~clients in
  let selected =
    match List.filter (fun a -> List.mem_assoc a table) args with
    | [] -> List.map fst table
    | ids -> ids
  in
  Printf.printf "nettomo experiment harness (seed %d, %s volume, %d job%s)\n"
    seed
    (if full then "paper-scale" else "reduced")
    jobs
    (if jobs = 1 then "" else "s");
  if Inv.enabled () then
    print_endline "NETTOMO_CHECK=1: runtime invariant verification enabled";
  Fun.protect
    ~finally:(fun () -> Pool.close pool)
    (fun () ->
      List.iter (fun id -> Report.timed report ~id (List.assoc id table)) selected);
  (match json_path with
  | None -> ()
  | Some path -> Report.write report ~path ~seed ~jobs ~full);
  match trace_path with
  | None -> ()
  | Some path ->
      let oc = open_out path in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () -> output_string oc (Obs.Trace.to_chrome_json ()));
      Printf.printf "wrote Chrome trace to %s\n" path
