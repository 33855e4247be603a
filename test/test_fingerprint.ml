(* Property tests for the incremental structural fingerprint: build
   order must not matter (XOR of per-element hashes), toggles must be
   involutive, and the fingerprint a session maintains delta-by-delta
   must equal the one rebuilt from scratch off the final network. *)

open Nettomo_graph
open Nettomo_core
module Fingerprint = Nettomo_engine.Fingerprint
module Session = Nettomo_engine.Session
module Prng = Nettomo_util.Prng
module NS = Graph.NodeSet

let check = Alcotest.check
let cb = Alcotest.bool

let shuffle rng a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Prng.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* ------------------------------------------------------------------ *)

let test_order_independence () =
  (* The structure hash of a graph must not depend on the order nodes
     and links were added, nor on the insertion order of a hand-rolled
     toggle sequence over the same elements. *)
  let rng = Prng.create 0xf119 in
  for _ = 1 to 50 do
    let n = 5 + Prng.int rng 10 in
    let g = Fixtures.random_connected rng n (Prng.int rng 10) in
    let reference = Fingerprint.of_graph g in
    let nodes = shuffle rng (Graph.node_array g) in
    let edges = shuffle rng (Array.of_list (Graph.edges g)) in
    (* Rebuild by incremental toggles in shuffled order; also flip the
       endpoint order of every other link — with_edge must normalize. *)
    let fp = ref { Fingerprint.structure = 0L; monitors = 0L } in
    Array.iter (fun v -> fp := Fingerprint.with_node !fp v) nodes;
    Array.iteri
      (fun i (u, v) ->
        fp :=
          if i mod 2 = 0 then Fingerprint.with_edge !fp u v
          else Fingerprint.with_edge !fp v u)
      edges;
    if not (Int64.equal (Fingerprint.structure !fp) reference) then
      Alcotest.fail "shuffled toggle order changed the structure hash";
    (* And a shuffled Graph.of_edges round-trip agrees too. *)
    let g2 =
      Graph.of_edges
        ~nodes:(Array.to_list nodes)
        (Array.to_list edges)
    in
    if not (Int64.equal (Fingerprint.of_graph g2) reference) then
      Alcotest.fail "shuffled graph construction changed the structure hash"
  done

let test_involution () =
  let rng = Prng.create 0x10f0 in
  for _ = 1 to 100 do
    let fp =
      Fingerprint.of_net
        (Net.create
           (Fixtures.random_connected rng (5 + Prng.int rng 8) 3)
           ~monitors:[ 0; 1 ])
    in
    let v = Prng.int rng 50 and u = Prng.int rng 50 in
    let back = Fingerprint.with_node (Fingerprint.with_node fp v) v in
    check cb "node toggle is involutive" true (Fingerprint.equal fp back);
    if u <> v then begin
      let back =
        Fingerprint.with_edge (Fingerprint.with_edge fp u v) v u
      in
      check cb "link toggle is involutive (either orientation)" true
        (Fingerprint.equal fp back)
    end;
    let back = Fingerprint.with_monitor (Fingerprint.with_monitor fp v) v in
    check cb "monitor toggle is involutive" true (Fingerprint.equal fp back)
  done

let test_monitor_structure_split () =
  let fp = Fingerprint.of_net (Net.create Fixtures.fig1 ~monitors:[ 0; 1; 2 ]) in
  let fp' = Fingerprint.with_edge (Fingerprint.with_node fp 99) 99 0 in
  check cb "structure toggles leave monitors half alone" true
    (Int64.equal (Fingerprint.monitors fp) (Fingerprint.monitors fp'));
  let fp'' = Fingerprint.with_monitor fp 3 in
  check cb "monitor toggles leave structure half alone" true
    (Int64.equal (Fingerprint.structure fp) (Fingerprint.structure fp''));
  (* with_monitor_set is the fold of single toggles from empty. *)
  let ms = NS.of_list [ 2; 5; 6 ] in
  let wholesale = Fingerprint.with_monitor_set fp ms in
  let stepwise =
    NS.fold
      (fun v acc -> Fingerprint.with_monitor acc v)
      ms
      (Fingerprint.with_monitor_set fp NS.empty)
  in
  check cb "with_monitor_set equals stepwise toggles" true
    (Fingerprint.equal wholesale stepwise)

let test_of_component_consistency () =
  (* of_component over a graph's full node/link sets is of_graph. *)
  let rng = Prng.create 0xc0de in
  for _ = 1 to 50 do
    let g = Fixtures.random_connected rng (4 + Prng.int rng 12) (Prng.int rng 8) in
    check cb "of_component agrees with of_graph" true
      (Int64.equal
         (Fingerprint.of_component (Graph.node_set g) (Graph.edge_set g))
         (Fingerprint.of_graph g))
  done

(* The session's per-block cache key, read off the flat members, is
   [of_component] of the block [decompose] lists in the same place: the
   key every stored [tri-]/[sep-] entry was written under. *)
let prop_block_key_is_of_component =
  QCheck2.Test.make ~name:"flat block key = of_component (sparse ids)" ~count:300
    QCheck2.Gen.(triple (int_bound 100_000) (int_range 1 25) (int_range 0 20))
    (fun (seed, n, extra) ->
      let rng = Prng.create seed in
      let g = Fixtures.random_sparse_graph rng n extra in
      let c, flat, blocks = Fixtures.flat_blocks g in
      let m = Biconnected.members c flat in
      List.for_all
        (fun ((b : Biconnected.component), k) ->
          Int64.equal
            (Fingerprint.of_block c ~nodes:m.nodes.(k) ~links:m.links.(k))
            (Fingerprint.of_component b.nodes b.edges))
        blocks)

let test_distinct_graphs_distinct_hashes () =
  (* Sanity, not a collision-resistance proof: structurally different
     small graphs must hash apart. *)
  let graphs =
    [
      Fixtures.triangle; Fixtures.square; Fixtures.k4; Fixtures.k5;
      Fixtures.bowtie; Fixtures.wheel5; Fixtures.petersen;
      Fixtures.path_graph 4; Fixtures.cycle_graph 5; Fixtures.star 3;
    ]
  in
  let hashes = List.map Fingerprint.of_graph graphs in
  List.iteri
    (fun i a ->
      List.iteri
        (fun j b ->
          if i < j && Int64.equal a b then
            Alcotest.failf "graphs %d and %d collide" i j)
        hashes)
    hashes

(* ------------------------------------------------------------------ *)
(* Delta-vs-rebuild: the fingerprint the session carries through an
   arbitrary delta stream equals Fingerprint.of_net of the network it
   ended up with — the property the store's content addressing rests
   on (same state ⇒ same key, regardless of the path taken). *)

let random_valid_delta rng g =
  let nodes = Graph.node_array g in
  let pick () = Prng.choose rng nodes in
  let rec go attempts =
    if attempts = 0 then Session.Add_node (Graph.fresh_node g)
    else
      match Prng.int rng 5 with
      | 0 -> Session.Add_link (pick (), Graph.fresh_node g)
      | 1 ->
          let u = pick () and v = pick () in
          if u <> v && not (Graph.mem_edge g u v) then Session.Add_link (u, v)
          else go (attempts - 1)
      | 2 -> (
          match Graph.edges g with
          | [] -> go (attempts - 1)
          | es ->
              let u, v = List.nth es (Prng.int rng (List.length es)) in
              Session.Remove_link (u, v))
      | 3 ->
          if Array.length nodes > 4 then Session.Remove_node (pick ())
          else go (attempts - 1)
      | _ ->
          let k = min (Array.length nodes) (1 + Prng.int rng 4) in
          Session.Set_monitors (Array.to_list (Prng.sample rng k nodes))
  in
  go 10

let test_delta_vs_rebuild () =
  let rng = Prng.create 0xde17a in
  for stream = 1 to 25 do
    let g = Fixtures.random_connected rng (6 + Prng.int rng 8) (Prng.int rng 6) in
    let monitors = [ 0; 1; 2 ] in
    let s = Session.create (Net.create g ~monitors) in
    for step = 1 to 30 do
      let d = random_valid_delta rng (Net.graph (Session.net s)) in
      (match Session.apply s d with
      | Ok () -> ()
      | Error m ->
          Alcotest.failf "stream %d step %d: apply failed: %s" stream step m);
      let carried = Session.fingerprint s in
      let rebuilt = Fingerprint.of_net (Session.net s) in
      if not (Fingerprint.equal carried rebuilt) then
        Alcotest.failf
          "stream %d step %d: carried fingerprint %s diverges from rebuilt %s"
          stream step
          (Fingerprint.to_string carried)
          (Fingerprint.to_string rebuilt)
    done
  done

let suite =
  [
    Alcotest.test_case "order independence" `Quick test_order_independence;
    Alcotest.test_case "toggles are involutive" `Quick test_involution;
    Alcotest.test_case "structure / monitors halves are independent" `Quick
      test_monitor_structure_split;
    Alcotest.test_case "of_component consistency" `Quick
      test_of_component_consistency;
    QCheck_alcotest.to_alcotest prop_block_key_is_of_component;
    Alcotest.test_case "distinct graphs hash apart" `Quick
      test_distinct_graphs_distinct_hashes;
    Alcotest.test_case "delta stream equals rebuild" `Quick
      test_delta_vs_rebuild;
  ]
