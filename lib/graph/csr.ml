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

(* The restriction's nodes are its links' endpoints, numbered in index
   order; a half-edge of such a node's row is kept when its link is
   listed, so the kept rows stay sorted, and the listed links keep their
   relative (lexicographic) order. [number] and [local] map old link
   numbers and node indices to new ones, -1 outside. *)
let restrict t links =
  let m = Array.length links in
  let number = Array.make t.m (-1) and local = Array.make t.n (-1) in
  let nodes = Array.make (2 * m) 0 and n = ref 0 in
  let mark x =
    if local.(x) < 0 then begin
      local.(x) <- 0;
      nodes.(!n) <- x;
      incr n
    end
  in
  Array.iteri
    (fun i k ->
      if k < 0 || k >= t.m || (i > 0 && k <= links.(i - 1)) then
        Nettomo_util.Errors.invalid_arg "Csr.restrict: links must be ascending link numbers";
      number.(k) <- i;
      mark t.ends.(2 * k);
      mark t.ends.((2 * k) + 1))
    links;
  let nodes = Array.sub nodes 0 !n in
  Array.sort Int.compare nodes;
  Array.iteri (fun i x -> local.(x) <- i) nodes;
  let n = !n in
  let xadj = Array.make (n + 1) 0
  and adj = Array.make (2 * m) 0
  and eid = Array.make (2 * m) 0 in
  Array.iteri
    (fun i x ->
      let pos = ref xadj.(i) in
      for h = t.xadj.(x) to t.xadj.(x + 1) - 1 do
        let k = number.(t.eid.(h)) in
        if k >= 0 then begin
          adj.(!pos) <- local.(t.adj.(h));
          eid.(!pos) <- k;
          incr pos
        end
      done;
      xadj.(i + 1) <- !pos)
    nodes;
  {
    n;
    m;
    ids = Array.map (Array.get t.ids) nodes;
    xadj;
    adj;
    eid;
    ends = Array.init (2 * m) (fun h -> local.(t.ends.((2 * links.(h / 2)) + (h mod 2))));
  }

(* The identifiers [Graph.fresh_node] picks twice, for a graph with the
   increasing identifiers [ids] and then for it plus the first pick:
   one above the largest, or, once that is [max_int], the first free one
   upwards from [min_int]. *)
let fresh_pair ids =
  let n = Array.length ids in
  let rec free v i = if i < n && ids.(i) = v then free (v + 1) (i + 1) else (v, i) in
  if n = 0 then (0, 1)
  else
    let hi = ids.(n - 1) in
    if hi < max_int - 1 then (hi + 1, hi + 2)
    else
      let a, i = free min_int 0 in
      if hi < max_int then (max_int, a) else (a, fst (free (a + 1) i))

(* Sorted rows with their links numbered in lexicographic order: the
   rows are scanned in increasing order, each half-edge to a higher
   neighbour j is the next link, and its other half is the next slot
   among j's lower neighbours, which open j's row in increasing
   order. *)
let of_rows ids xadj adj =
  let n = Array.length ids and h = Array.length adj in
  let eid = Array.make h 0 and ends = Array.make h 0 in
  let lower = Array.sub xadj 0 n and k = ref 0 in
  for i = 0 to n - 1 do
    for p = xadj.(i) to xadj.(i + 1) - 1 do
      let j = adj.(p) in
      if j > i then begin
        eid.(p) <- !k;
        eid.(lower.(j)) <- !k;
        lower.(j) <- lower.(j) + 1;
        ends.(2 * !k) <- i;
        ends.((2 * !k) + 1) <- j;
        incr k
      end
    done
  done;
  { n; m = h / 2; ids; xadj; adj; eid; ends }

(* Old index [i] moves up by the new identifiers below its own. Each
   row of a linked node takes the two new indices in order among its
   shifted neighbours; the new nodes' rows are the linked nodes. *)
let extend t linked =
  let a, b = fresh_pair t.ids in
  let pos = Array.mapi (fun i v -> i + (if a < v then 1 else 0) + if b < v then 1 else 0) t.ids in
  let n = t.n + 2 in
  let before v = Array.fold_left (fun acc x -> if x < v then acc + 1 else acc) 0 t.ids in
  let ia = before a + (if b < a then 1 else 0) and ib = before b + if a < b then 1 else 0 in
  let hubs = [| Int.min ia ib; Int.max ia ib |] in
  let kappa = Array.fold_left (fun acc l -> if l then acc + 1 else acc) 0 linked in
  let ids = Array.make n a and xadj = Array.make (n + 1) 0 in
  ids.(ib) <- b;
  xadj.(ia + 1) <- kappa;
  xadj.(ib + 1) <- kappa;
  Array.iteri
    (fun i p ->
      ids.(p) <- t.ids.(i);
      xadj.(p + 1) <- t.xadj.(i + 1) - t.xadj.(i) + if linked.(i) then 2 else 0)
    pos;
  for i = 1 to n do
    xadj.(i) <- xadj.(i) + xadj.(i - 1)
  done;
  let adj = Array.make xadj.(n) 0 in
  let fill = Array.sub xadj 0 n in
  let emit r x =
    adj.(fill.(r)) <- x;
    fill.(r) <- fill.(r) + 1
  in
  Array.iteri
    (fun i p ->
      (* The first [placed] of the two new indices are in the row. *)
      let placed = ref (if linked.(i) then 0 else 2) in
      let hubs_below x =
        while !placed < 2 && hubs.(!placed) < x do
          emit p hubs.(!placed);
          incr placed
        done
      in
      for q = t.xadj.(i) to t.xadj.(i + 1) - 1 do
        let x = pos.(t.adj.(q)) in
        hubs_below x;
        emit p x
      done;
      hubs_below n;
      if linked.(i) then begin
        emit ia p;
        emit ib p
      end)
    pos;
  of_rows ids xadj adj

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
