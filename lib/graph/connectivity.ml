module Errors = Nettomo_util.Errors

(* Unit-capacity max flow on a directed residual network given by arrays,
   using BFS augmentation (Edmonds–Karp). Capacities are small (0/1 or a
   large constant standing for infinity), so the flow value bounds the
   number of augmentations. *)
module Flow = struct
  type t = {
    n : int;
    (* Forward-star representation: arcs stored once with a mutable
       residual capacity, plus the index of the reverse arc. *)
    heads : int array;
    caps : int array;
    rev : int array;
    out_arcs : int list array;
  }

  (* Build from an arc list: (src, dst, cap). Adds reverse arcs with
     capacity 0. *)
  let of_arcs n arcs =
    let m = List.length arcs in
    let heads = Array.make (2 * m) 0 in
    let caps = Array.make (2 * m) 0 in
    let rev = Array.make (2 * m) 0 in
    let out_arcs = Array.make n [] in
    List.iteri
      (fun i (u, v, c) ->
        let a = 2 * i and b = (2 * i) + 1 in
        heads.(a) <- v;
        caps.(a) <- c;
        rev.(a) <- b;
        heads.(b) <- u;
        caps.(b) <- 0;
        rev.(b) <- a;
        out_arcs.(u) <- a :: out_arcs.(u);
        out_arcs.(v) <- b :: out_arcs.(v))
      arcs;
    { n; heads; caps; rev; out_arcs }

  (* One BFS augmentation of value 1 (all arcs have integer capacity; the
     bottleneck on any augmenting path here is always ≥ 1, and we only
     ever need unit augmentations because source arcs have capacity 1 in
     every use below — except the [limit] short-circuit). *)
  let augment t s d =
    let pred_arc = Array.make t.n (-1) in
    let seen = Array.make t.n false in
    seen.(s) <- true;
    let q = Queue.create () in
    Queue.add s q;
    let found = ref false in
    while (not !found) && not (Queue.is_empty q) do
      let u = Queue.pop q in
      List.iter
        (fun a ->
          let v = t.heads.(a) in
          if (not seen.(v)) && t.caps.(a) > 0 then begin
            seen.(v) <- true;
            pred_arc.(v) <- a;
            if v = d then found := true else Queue.add v q
          end)
        t.out_arcs.(u)
    done;
    if not !found then false
    else begin
      (* Push one unit along the path. *)
      let rec walk v =
        if v <> s then begin
          let a = pred_arc.(v) in
          t.caps.(a) <- t.caps.(a) - 1;
          t.caps.(t.rev.(a)) <- t.caps.(t.rev.(a)) + 1;
          walk t.heads.(t.rev.(a))
        end
      in
      walk d;
      true
    end

  let max_flow ?limit t s d =
    let lim = Option.value limit ~default:max_int in
    let flow = ref 0 in
    while !flow < lim && augment t s d do
      incr flow
    done;
    !flow
end

let check_pair g s d =
  if s = d then Errors.invalid_arg "Connectivity: endpoints must differ";
  if not (Graph.mem_node g s && Graph.mem_node g d) then
    Errors.invalid_arg "Connectivity: unknown endpoint"

(* Each half-edge [u → adj.(p)] of the Csr rows, in row order, as
   [f u adj.(p)]. *)
let iter_half_edges (c : Csr.t) f =
  for u = 0 to c.n - 1 do
    for p = c.xadj.(u) to c.xadj.(u + 1) - 1 do
      f u c.adj.(p)
    done
  done

let edge_flow_network (c : Csr.t) =
  (* Each undirected link becomes two unit arcs. *)
  let arcs = ref [] in
  iter_half_edges c (fun u v -> arcs := (u, v, 1) :: !arcs);
  Flow.of_arcs c.n !arcs

let max_flow_edges_limited g s d limit =
  check_pair g s d;
  let c = Csr.of_graph g in
  let net = edge_flow_network c in
  Flow.max_flow ?limit net (Csr.index c s) (Csr.index c d)

let max_flow_edges g s d = max_flow_edges_limited g s d None

(* Vertex-disjoint paths: split every node x into x_in = 2x and
   x_out = 2x + 1 with an internal arc of capacity 1 (unbounded for the
   endpoints), and turn each link (u, v) into arcs u_out → v_in and
   v_out → u_in of capacity 1. Unit capacity on link arcs is enough —
   vertex-disjoint paths use each link at most once — and it makes the
   direct s-d link count as exactly one path. *)
let vertex_flow_network (c : Csr.t) ~s ~d =
  let inf = c.n + 10 in
  let arcs = ref [] in
  for x = 0 to c.n - 1 do
    let cap = if x = s || x = d then inf else 1 in
    arcs := ((2 * x), (2 * x) + 1, cap) :: !arcs
  done;
  iter_half_edges c (fun u v -> arcs := (((2 * u) + 1), 2 * v, 1) :: !arcs);
  Flow.of_arcs (2 * c.n) !arcs

let max_flow_vertices_limited g s d limit =
  check_pair g s d;
  let c = Csr.of_graph g in
  let si = Csr.index c s and di = Csr.index c d in
  let net = vertex_flow_network c ~s:si ~d:di in
  Flow.max_flow ?limit net ((2 * si) + 1) (2 * di)

let max_flow_vertices g s d = max_flow_vertices_limited g s d None

let edge_connectivity g =
  let n = Graph.n_nodes g in
  if n < 2 then 0
  else if not (Traversal.is_connected g) then 0
  else begin
    (* λ(G) = min over v ≠ s of maxflow(s, v), for any fixed s. *)
    match Graph.nodes g with
    | [] -> 0
    | s :: rest ->
        List.fold_left (fun acc v -> min acc (max_flow_edges g s v)) max_int rest
  end

let is_complete g =
  let n = Graph.n_nodes g in
  Graph.n_edges g = n * (n - 1) / 2

let vertex_connectivity g =
  let n = Graph.n_nodes g in
  if n < 2 then Errors.invalid_arg "Connectivity.vertex_connectivity: too small";
  if not (Traversal.is_connected g) then 0
  else if is_complete g then n - 1
  else begin
    (* κ(G) = min over non-adjacent pairs of vertex-disjoint paths. *)
    let nodes = Graph.node_array g in
    let best = ref max_int in
    Array.iteri
      (fun i u ->
        Array.iteri
          (fun j v ->
            if j > i && not (Graph.mem_edge g u v) then
              best := min !best (max_flow_vertices g u v))
          nodes)
      nodes;
    !best
  end

let is_k_edge_connected g k =
  if k <= 0 then Errors.invalid_arg "Connectivity.is_k_edge_connected: k must be ≥ 1";
  Graph.n_nodes g >= 2
  && Traversal.is_connected g
  &&
  match Graph.nodes g with
  | [] -> false
  | s :: rest ->
      List.for_all (fun v -> max_flow_edges_limited g s v (Some k) >= k) rest

let is_k_vertex_connected g k =
  if k <= 0 then Errors.invalid_arg "Connectivity.is_k_vertex_connected: k must be ≥ 1";
  let n = Graph.n_nodes g in
  n > k
  && Traversal.is_connected g
  &&
  if is_complete g then n - 1 >= k
  else begin
    let nodes = Graph.node_array g in
    let ok = ref true in
    Array.iteri
      (fun i u ->
        Array.iteri
          (fun j v ->
            if
              !ok && j > i
              && (not (Graph.mem_edge g u v))
              && max_flow_vertices_limited g u v (Some k) < k
            then ok := false)
          nodes)
      nodes;
    !ok
  end
