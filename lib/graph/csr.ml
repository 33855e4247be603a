type t = {
  n : int;
  m : int;
  ids : Graph.node array;
  xadj : int array;
  adj : int array;
  eid : int array;
  ends : int array;
}

(* Binary search for [v] among the increasing values [key lo] …
   [key (hi - 1)]; its position, or -1 when absent. Typed on ints, so
   each probe is one integer compare, not a polymorphic one. *)
let search (key : int -> int) lo hi (v : int) =
  let rec go lo hi =
    if lo >= hi then -1
    else
      let mid = lo + ((hi - lo) / 2) in
      let x = key mid in
      if x = v then mid else if x < v then go (mid + 1) hi else go lo mid
  in
  go lo hi

let find t v = search (Array.get t.ids) 0 t.n v

let index t v =
  match find t v with
  | -1 -> Nettomo_util.Errors.invalid_arg "Csr.index: node not in the graph"
  | i -> i

(* Index order is identifier order, so a row sorted by neighbour index
   is sorted by neighbour identifier too. *)
let half_edge t i v = search (fun k -> t.ids.(t.adj.(k))) t.xadj.(i) t.xadj.(i + 1) v

let endpoints t k = (t.ends.(2 * k), t.ends.((2 * k) + 1))
let edge t k = (t.ids.(t.ends.(2 * k)), t.ids.(t.ends.((2 * k) + 1)))

type tree = {
  parent : int array;
  parent_eid : int array;
  depth : int array;
  order : int array;
  reached : int;
}

(* FIFO queue over the sorted rows, parent fixed at first discovery:
   the tree {!Traversal}'s persistent-graph search builds, in indices. *)
let bfs t root =
  let n = t.n in
  let parent = Array.make n (-1)
  and parent_eid = Array.make n (-1)
  and depth = Array.make n (-1)
  and order = Array.make n (-1) in
  let queue = Queue.create () in
  depth.(root) <- 0;
  Queue.add root queue;
  let filled = ref 0 in
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    order.(!filled) <- u;
    incr filled;
    for k = t.xadj.(u) to t.xadj.(u + 1) - 1 do
      let v = t.adj.(k) in
      if depth.(v) < 0 then begin
        depth.(v) <- depth.(u) + 1;
        parent.(v) <- u;
        parent_eid.(v) <- t.eid.(k);
        Queue.add v queue
      end
    done
  done;
  { parent; parent_eid; depth; order; reached = !filled }

module Invariant = struct
  (* Every row and link is compared with the graph's own sorted
     accessors, which never look at the flat form. *)
  let check g t =
    let req = Nettomo_util.Invariant.require in
    let ints = List.equal Int.equal in
    req
      (ints (Array.to_list t.ids) (Graph.nodes g)
      && t.n = Array.length t.ids
      && t.m = Graph.n_edges g
      && Array.length t.xadj = t.n + 1
      && t.xadj.(t.n) = 2 * t.m
      && Array.length t.adj = 2 * t.m
      && Array.length t.eid = 2 * t.m
      && Array.length t.ends = 2 * t.m)
      "Csr: %d nodes and %d links do not match the graph or the arrays" t.n t.m;
    List.iteri
      (fun k e ->
        req (Graph.edge_equal (edge t k) e) "Csr: link %d out of lexicographic order" k)
      (Graph.edges g);
    Array.iteri
      (fun i v ->
        let lo = t.xadj.(i) and hi = t.xadj.(i + 1) in
        let row = Array.to_list (Array.sub t.adj lo (hi - lo)) in
        req
          (ints (List.map (fun j -> t.ids.(j)) row) (Graph.neighbor_list g v))
          "Csr: row %d is not the sorted neighbour set of node %d" i v;
        for p = lo to hi - 1 do
          req
            (Graph.edge_equal (edge t t.eid.(p)) (Graph.edge v t.ids.(t.adj.(p))))
            "Csr: half-edge %d of row %d carries the wrong link" p i
        done)
      t.ids
end

let of_graph g =
  let ids = Graph.node_array g in
  let n = Array.length ids and m = Graph.n_edges g in
  let nbrs = Array.map (Graph.neighbors g) ids in
  let xadj = Array.make (n + 1) 0 in
  Array.iteri (fun i s -> xadj.(i + 1) <- xadj.(i) + Graph.NodeSet.cardinal s) nbrs;
  let adj = Array.make (2 * m) 0
  and eid = Array.make (2 * m) 0
  and ends = Array.make (2 * m) 0 in
  (* One cursor pass in increasing row order: scanning row [i] numbers
     its links to higher neighbours [j] in increasing order — the
     lexicographic link order — and appends each to both rows. Row [j]
     thus receives its lower neighbours, in increasing order, before its
     own scan appends the higher ones, so every row comes out sorted. *)
  let cursor = Array.sub xadj 0 n in
  (* When the identifiers form one run of consecutive integers, as on
     every generated map, a neighbour's index is its offset from the
     first; otherwise it is searched for. Strictly increasing
     identifiers span exactly [n - 1] only if they are consecutive (a
     span past [max_int] wraps negative). *)
  let index_of =
    if n > 0 && ids.(n - 1) - ids.(0) = n - 1 then
      let first = ids.(0) in
      fun v -> v - first
    else search (Array.get ids) 0 n
  in
  let half i j k =
    adj.(cursor.(i)) <- j;
    eid.(cursor.(i)) <- k;
    cursor.(i) <- cursor.(i) + 1
  in
  let k = ref 0 in
  Array.iteri
    (fun i s ->
      Graph.NodeSet.iter
        (fun v ->
          if v > ids.(i) then begin
            let j = index_of v in
            half i j !k;
            half j i !k;
            ends.(2 * !k) <- i;
            ends.((2 * !k) + 1) <- j;
            incr k
          end)
        s)
    nbrs;
  let t = { n; m; ids; xadj; adj; eid; ends } in
  Nettomo_util.Invariant.check (fun () -> Invariant.check g t);
  t
