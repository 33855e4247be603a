open Nettomo_graph
module Net = Nettomo_core.Net

type t = { structure : int64; monitors : int64 }

(* SplitMix64 finalizer: a well-mixed 64-bit permutation, so that the
   XOR of per-element hashes behaves like a random incremental hash. *)
let mix64 z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94d049bb133111ebL in
  logxor z (shift_right_logical z 31)

(* Distinct tags keep the node / edge / monitor element spaces disjoint
   before finalization. *)
let node_tag = 0x6e6f64655f746167L
let edge_tag = 0x656467655f746167L
let monitor_tag = 0x6d6f6e5f5f746167L

let hash_node v = mix64 (Int64.logxor node_tag (Int64.of_int v))

let hash_edge u v =
  let u, v = if u <= v then (u, v) else (v, u) in
  mix64
    (Int64.logxor edge_tag
       (Int64.add (Int64.mul (Int64.of_int u) 0x100000001b3L) (Int64.of_int v)))

let hash_monitor v = mix64 (Int64.logxor monitor_tag (Int64.of_int v))

let with_node t v = { t with structure = Int64.logxor t.structure (hash_node v) }

let with_edge t u v =
  { t with structure = Int64.logxor t.structure (hash_edge u v) }

let with_monitor t v =
  { t with monitors = Int64.logxor t.monitors (hash_monitor v) }

let structure t = t.structure
let monitors t = t.monitors

let monitors_of_set ms =
  Graph.NodeSet.fold (fun v acc -> Int64.logxor acc (hash_monitor v)) ms 0L

let with_monitor_set t ms = { t with monitors = monitors_of_set ms }

let of_graph g =
  let s = Graph.fold_nodes (fun v acc -> Int64.logxor acc (hash_node v)) g 0L in
  Graph.fold_edges (fun (u, v) acc -> Int64.logxor acc (hash_edge u v)) g s

let of_component nodes edges =
  let s =
    Graph.NodeSet.fold (fun v acc -> Int64.logxor acc (hash_node v)) nodes 0L
  in
  Graph.EdgeSet.fold (fun (u, v) acc -> Int64.logxor acc (hash_edge u v)) edges s

let of_block (c : Csr.t) ~nodes ~links =
  let h = ref 0L in
  Array.iter (fun i -> h := Int64.logxor !h (hash_node c.ids.(i))) nodes;
  Array.iter
    (fun k ->
      let u, v = Csr.edge c k in
      h := Int64.logxor !h (hash_edge u v))
    links;
  !h

let of_net net =
  {
    structure = of_graph (Net.graph net);
    monitors = monitors_of_set (Net.monitors net);
  }

let equal a b =
  Int64.equal a.structure b.structure && Int64.equal a.monitors b.monitors

let to_string t = Printf.sprintf "%016Lx:%016Lx" t.structure t.monitors
