open Nettomo_graph
open Nettomo_core

let check = Alcotest.check
let ci = Alcotest.int
let cb = Alcotest.bool

let test_extend_structure () =
  let net = Net.create Fixtures.fig1 ~monitors:[ 0; 1; 2 ] in
  let ext = Extended.extend net in
  let g = ext.Extended.graph in
  check ci "two extra nodes" (Graph.n_nodes Fixtures.fig1 + 2) (Graph.n_nodes g);
  check ci "2κ extra links" (Graph.n_edges Fixtures.fig1 + 6) (Graph.n_edges g);
  check cb "fresh ids" true
    (not (Graph.mem_node Fixtures.fig1 ext.Extended.vm1)
    && not (Graph.mem_node Fixtures.fig1 ext.Extended.vm2));
  check cb "no virtual-virtual link" false
    (Graph.mem_edge g ext.Extended.vm1 ext.Extended.vm2);
  List.iter
    (fun m ->
      check cb "vm1 linked to every monitor" true (Graph.mem_edge g ext.Extended.vm1 m);
      check cb "vm2 linked to every monitor" true (Graph.mem_edge g ext.Extended.vm2 m))
    [ 0; 1; 2 ];
  check ci "vm degree = κ" 3 (Graph.degree g ext.Extended.vm1)

let test_original_untouched () =
  let net = Net.create Fixtures.fig1 ~monitors:[ 0; 1; 2 ] in
  let ext = Extended.extend net in
  Graph.iter_edges
    (fun (u, v) ->
      check cb "original link kept" true (Graph.mem_edge ext.Extended.graph u v))
    Fixtures.fig1

let test_as_two_monitor_net () =
  let net = Net.create Fixtures.fig1 ~monitors:[ 0; 1; 2 ] in
  let two = Extended.as_two_monitor_net net in
  check ci "two monitors" 2 (Net.kappa two);
  (* G is the interior graph of Gex (Section 6). *)
  let h = Interior.interior_graph two in
  check cb "interior graph of Gex is G" true (Graph.equal h Fixtures.fig1)

let test_no_monitors_rejected () =
  Alcotest.check_raises "no monitors" (Invalid_argument "Extended.extend: no monitors")
    (fun () -> ignore (Extended.extend (Net.create Fixtures.fig1 ~monitors:[])))

(* [Csr.extend] on the monitor flags against the persistent extension,
   flattened: random graphs (isolated nodes and several components
   allowed), half on sparse identifiers, which hold [max_int] and so put
   both virtual monitors among the lowest free identifiers. *)
let prop_flat_matches_persistent =
  QCheck2.Test.make ~name:"flat Gex = of_graph of persistent Gex (sparse ids)" ~count:400
    QCheck2.Gen.(quad (int_bound 1_000_000) (int_range 1 16) (int_range 0 30) bool)
    (fun (seed, n, extra, sparse) ->
      let rng = Nettomo_util.Prng.create seed in
      let g = Fixtures.random_graph rng n extra in
      let g = if sparse then Fixtures.relabel (Fixtures.sparse_ids rng n) g else g in
      let nodes = Graph.node_array g in
      let kappa = Nettomo_util.Prng.int_in rng 1 n in
      let net =
        Net.create g ~monitors:(Array.to_list (Nettomo_util.Prng.sample rng kappa nodes))
      in
      let gex = (Extended.extend net).Extended.graph in
      let c = Csr.of_graph g in
      let flat = Csr.extend c (Array.map (Net.is_monitor net) c.Csr.ids) in
      Nettomo_util.Invariant.with_enabled true (fun () -> Csr.Invariant.check gex flat);
      Fixtures.same_csr flat (Csr.of_graph gex))

let test_flat_identifier_edges () =
  (* A triangle monitored everywhere whose largest node is one below
     [max_int] (m'₁ = max_int, m'₂ the first free identifier from
     [min_int]), is [max_int] (both from [min_int] up, around a taken
     one), or is ordinary. *)
  List.iter
    (fun (a, b, c) ->
      let g = Graph.of_edges [ (a, b); (b, c); (a, c) ] in
      let ext = Extended.extend (Net.create g ~monitors:[ a; b; c ]) in
      let flat = Csr.extend (Csr.of_graph g) (Array.make 3 true) in
      check cb "same flat graph" true (Fixtures.same_csr flat (Csr.of_graph ext.Extended.graph)))
    [ (min_int, 0, max_int - 1); (min_int, min_int + 2, max_int); (-5, 0, 7) ]

let suite =
  [
    Alcotest.test_case "extended graph structure" `Quick test_extend_structure;
    Alcotest.test_case "original links kept" `Quick test_original_untouched;
    Alcotest.test_case "G is interior graph of Gex" `Quick test_as_two_monitor_net;
    Alcotest.test_case "rejects empty monitor set" `Quick test_no_monitors_rejected;
    QCheck_alcotest.to_alcotest prop_flat_matches_persistent;
    Alcotest.test_case "flat Gex at the ends of the int range" `Quick test_flat_identifier_edges;
  ]
