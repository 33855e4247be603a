(* Generated inputs: the fixed maps every workload runs on and the
   seeded delta streams that drive them.

   Maps are generated from fixed topology seeds (the ones bench/main.ml
   uses at its default seed, so the maps are the BENCH_* ones) and do
   not depend on the run seed: ten runs with ten seeds then measure the
   same network under ten different delta streams, which keeps the
   run-to-run spread a property of the system rather than of the map
   draw. The run seed drives every stream, traffic deck and session
   seed. *)

open Nettomo_graph
module Prng = Nettomo_util.Prng
module Gen = Nettomo_topo.Gen
module Isp = Nettomo_topo.Isp
module Net = Nettomo_core.Net
module Mmp = Nettomo_core.Mmp
module Session = Nettomo_engine.Session

let isp name =
  match Isp.find name with
  | Some spec -> spec
  | None -> invalid_arg ("Inputs.isp: no spec named " ^ name)

let ebone () = Isp.generate (Prng.create 50) (isp "Ebone")
let exodus () = Isp.generate (Prng.create 54) (isp "Exodus")
let tiscali () = Isp.generate (Prng.create 56) (isp "Tiscali")

let er150 () =
  let rng = Prng.create 48 in
  Gen.until_connected (fun () -> Gen.erdos_renyi rng ~n:150 ~p:0.039)

(* An AS7018-shaped spec scaled to 10^4 nodes (the solve-scale bench's
   ISP10k): same dangling and tandem fractions, link density just under
   AT&T's. *)
let isp10000 () =
  Isp.generate (Prng.create 74)
    {
      Isp.name = "ISP10k";
      nodes = 10_000;
      links = 30_000;
      dangling_frac = 0.28;
      tandem_frac = 0.05;
      paper_r_mmp = 0.0;
    }

let ba10000 () = Gen.barabasi_albert (Prng.create 75) ~n:10_000 ~nmin:2

let er10000 () =
  let rng = Prng.create 76 in
  Gen.until_connected (fun () -> Gen.erdos_renyi_sparse rng ~n:10_000 ~p:0.0015)

let mmp_monitors g = Graph.NodeSet.elements (Mmp.place g)

let rec take n = function
  | x :: rest when n > 0 -> x :: take (n - 1) rest
  | _ -> []

(* ------------------------------------------------------------------ *)
(* Delta streams                                                       *)

(* A shadow copy of the network a stream is driving. Streams read it to
   draw only valid deltas (a link that exists, a leaf that is attached,
   a link that is not a bridge) and the checks read it to rebuild the
   network an answer was computed for. *)
type world = {
  rng : Prng.t;
  base : Graph.node array;  (** the original nodes; never removed *)
  mon0 : Graph.node list;
  extra : Graph.node;  (** a non-monitor base node for monitor toggles *)
  mutable g : Graph.t;
  mutable monitors : Graph.node list;
  mutable next : Graph.node;  (** next fresh leaf identifier *)
  mutable attached : Graph.node list;  (** attached leaves, newest first *)
  mutable down : Graph.edge list;  (** failed core links *)
  mutable core_steps : int;  (** core deltas drawn so far *)
}

let world ~seed g monitors =
  let base = Graph.node_array g in
  let extra =
    List.find
      (fun v -> not (List.exists (Int.equal v) monitors))
      (Graph.nodes g)
  in
  {
    rng = Prng.create seed;
    base;
    mon0 = monitors;
    extra;
    g;
    monitors;
    next = 1 + Array.fold_left max 0 base;
    attached = [];
    down = [];
    core_steps = 0;
  }

let net w = Net.create w.g ~monitors:w.monitors

(* Access churn: leaves attach to a random original node and detach
   again (newest first), and the monitor set is re-declared with and
   without one extra node. The biconnected core is never touched. At
   most [max_leaves] leaves are attached at once: attaching slightly
   more often than detaching would otherwise grow the network all run
   long (a burst took twice as long at the end of a 20 s run as at its
   start), so a faster program, running more rounds, would meet a
   bigger network. *)
let max_leaves = 16

let access_delta w =
  let u = Prng.int w.rng 100 in
  if (u < 45 && List.length w.attached < max_leaves) || w.attached = [] then begin
    let leaf = w.next in
    let gw = w.base.(Prng.int w.rng (Array.length w.base)) in
    w.next <- leaf + 1;
    w.attached <- leaf :: w.attached;
    w.g <- Graph.add_edge w.g leaf gw;
    Session.Add_link (leaf, gw)
  end
  else if u < 85 then begin
    match w.attached with
    | leaf :: rest ->
        w.attached <- rest;
        w.g <- Graph.remove_node w.g leaf;
        Session.Remove_node leaf
    | [] -> invalid_arg "Inputs.access_delta: no attached leaf"
  end
  else begin
    w.monitors <- (if u < 93 then w.extra :: w.mon0 else w.mon0);
    Session.Set_monitors w.monitors
  end

(* Core churn: link failures and recoveries among the original links,
   never a bridge removed (the network stays connected). The number of
   links down climbs from 0 to [max_down] and back, one link a step;
   the seed picks which link fails and which recovers. With no link
   down the network is the original one, whose answers the session
   already holds, so that round costs next to nothing: a random walk of
   the count went back there for 6 to 11% of a run's rounds, depending
   on the seed, and moved throughput with it. Every other step reaches
   a fresh state almost always, so per-state memos rarely answer. *)
let max_down = 8

let core_delta w =
  let fail () =
    (* An attached leaf's link is a bridge, so leaves are never flapped. *)
    let bridges = Bridges.bridges w.g in
    let candidates =
      Graph.fold_edges
        (fun e acc -> if Graph.EdgeSet.mem e bridges then acc else e :: acc)
        w.g []
      |> Array.of_list
    in
    let ((u, v) as e) = candidates.(Prng.int w.rng (Array.length candidates)) in
    w.down <- e :: w.down;
    w.g <- Graph.remove_edge w.g u v;
    Session.Remove_link (u, v)
  in
  let recover () =
    let down = Array.of_list w.down in
    let ((u, v) as e) = down.(Prng.int w.rng (Array.length down)) in
    w.down <- List.filter (fun d -> not (Graph.edge_equal d e)) w.down;
    w.g <- Graph.add_edge w.g u v;
    Session.Add_link (u, v)
  in
  let step = w.core_steps in
  w.core_steps <- step + 1;
  if step mod (2 * max_down) < max_down then fail () else recover ()

(* ------------------------------------------------------------------ *)
(* Coverage budgets                                                    *)

(* MMP-prefix budgets: k from 2 to m (the full placement) in steps of
   about m/12. Prefixes are nested, so the true identifiable set can
   only grow along the curve. *)
let budgets m =
  let step = max 1 ((m + 11) / 12) in
  let rec go k acc = if k >= m then List.rev (m :: acc) else go (k + step) (k :: acc) in
  if m < 2 then [] else go 2 []
