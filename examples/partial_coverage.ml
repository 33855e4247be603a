(* Constrained monitor placement and partial identifiability.

     dune exec examples/partial_coverage.exe

   The paper (Section 7.3.2, footnote 17) notes that in real networks
   monitor selection may be constrained to a subset of nodes such as
   gateways, and leaves "the achievable number of identifiable links"
   under such constraints as future work. This example explores that
   regime with the library's per-link coverage classifier: on an
   ISP-like topology, place monitors only on the degree-1 gateway
   routers, measure what fraction of links that identifies, and watch
   coverage grow as backbone monitors are allowed in one by one — until
   it meets MMP's guaranteed-full placement. It ends with the library's
   greedy augmentation planner started from the gateways. *)

open Nettomo_graph
open Nettomo_topo
open Nettomo_core
module Prng = Nettomo_util.Prng
module Coverage = Nettomo_coverage.Coverage

let spec =
  {
    Isp.name = "demo-isp";
    nodes = 48;
    links = 96;
    dangling_frac = 0.25;
    tandem_frac = 0.05;
    paper_r_mmp = 0.0;
  }

let () =
  let rng = Prng.create 2013 in
  let g = Isp.generate rng spec in
  Format.printf "topology: %a@." Stats.pp (Stats.summary g);

  (* The constrained candidate set: gateway (degree-1) routers only. *)
  let gateways =
    Graph.fold_nodes
      (fun v acc -> if Graph.degree g v = 1 then v :: acc else acc)
      g []
    |> List.rev
  in
  Printf.printf "gateway routers (allowed monitor sites): %d\n" (List.length gateways);

  let classify monitors = Coverage.classify (Net.create g ~monitors) in
  let r0 = classify gateways in
  Format.printf "monitors on all gateways only: %a@." Coverage.pp r0;

  (* Relax the constraint: admit backbone routers one at a time, lowest
     degree first -- the degree-2 tandem relays are exactly the nodes
     MMP's rule (ii) would force, so they unlock coverage fastest. *)
  let backbone =
    Graph.nodes g
    |> List.filter (fun v -> Graph.degree g v > 1)
    |> List.sort (fun a b -> compare (Graph.degree g a) (Graph.degree g b))
  in
  Printf.printf "\nadmitting backbone routers by increasing degree:\n";
  let rec relax admitted remaining last_coverage =
    match remaining with
    | [] -> admitted
    | v :: rest ->
        let monitors = gateways @ List.rev (v :: admitted) in
        let r = classify monitors in
        let c = Coverage.coverage r in
        if c > last_coverage then
          Printf.printf
            "  + node %2d (degree %2d): coverage %5.1f%% (%d links)\n" v
            (Graph.degree g v) (100.0 *. c)
            (Graph.EdgeSet.cardinal r.Coverage.identifiable);
        if c >= 1.0 then v :: admitted
        else relax (v :: admitted) rest c
  in
  let admitted = relax [] backbone (Coverage.coverage r0) in
  Printf.printf
    "full coverage with the %d gateways + %d admitted backbone routers\n"
    (List.length gateways) (List.length admitted);

  (* Compare with the unconstrained optimum. *)
  let mmp = Mmp.place g in
  Printf.printf "unconstrained MMP optimum: %d monitors\n"
    (Graph.NodeSet.cardinal mmp);
  Printf.printf
    "(MMP must include every gateway by rule (i); any further gap is the\n\
     cost of the degree-order heuristic vs MMP's structural picks)\n";

  (* The library's greedy planner, for comparison: starting from the
     gateways, it adds the monitor that frees the most links each step
     and stops at full coverage. *)
  let plan =
    Coverage.augment ~k:(Graph.n_nodes g) (Net.create g ~monitors:gateways)
  in
  Format.printf "@.Coverage.augment from the gateways: %a@." Coverage.pp_plan
    plan
