module ES = Graph.EdgeSet
module Metrics = Nettomo_obs.Obs.Metrics

(* The sweep over [c], once [search (-1)] has marked G's own cut
   vertices in [is_cut]: [{v, u}] for every non-cut-vertex v with G - v
   connected and every cut-vertex u of G - v that is not one of G. *)
let sweep (c : Csr.t) is_cut search =
  let acc = ref ES.empty in
  let is_cut0 = Array.copy is_cut in
  for v = 0 to c.n - 1 do
    if (not is_cut0.(v)) && search v <= 1 then
      for u = 0 to c.n - 1 do
        if is_cut.(u) && not is_cut0.(u) then
          acc := ES.add (Graph.edge c.ids.(v) c.ids.(u)) !acc
      done
  done;
  ES.elements !acc

let cut_pairs g =
  Nettomo_obs.Obs.Trace.span "graph.separation.cut_pairs" @@ fun () ->
  let c = Csr.of_graph g in
  if c.n < 4 then []
  else begin
    let is_cut, search = Biconnected.Internal.cut_vertices_without c in
    ignore (search (-1));
    sweep c is_cut search
  end

(* G is biconnected iff it has 3 nodes or more and the sweep's first
   search finds one component and no cut vertex. *)
let block_pairs g =
  Nettomo_obs.Obs.Trace.span "graph.separation.cut_pairs" @@ fun () ->
  let c = Csr.of_graph g in
  let is_cut, search = Biconnected.Internal.cut_vertices_without c in
  if c.n < 3 || search (-1) > 1 || Array.exists Fun.id is_cut then None
  else if c.n = 3 then Some []
  else Some (sweep c is_cut search)

(* ------------------------------------------------------------------ *)
(* 3-vertex-connectivity: Hopcroft and Tarjan's path search (1973), in
   Gutwenger and Mutzel's corrected form (2001), stopped at the first
   separator. Nothing is split before that, so the graph the search
   tests is the input itself, and only the detection conditions are
   needed: no split component, virtual link or edge stack. *)

exception Separated of int array

let count_pass scanned =
  Metrics.incr Biconnected.dfs_runs;
  Metrics.incr ~by:scanned Biconnected.adjacency_scanned

(* [search c] returns when [c], of at least 4 nodes and minimum degree
   3, is 3-vertex-connected, and otherwise raises [Separated s] with a
   disconnecting set [s] of at most two node indices: [||] for a
   disconnected graph, a cut vertex, or a separation pair. Three
   depth-first passes, each counted as one lowpoint run. *)
let search (c : Csr.t) =
  let n = c.n and m = c.m in
  (* Pass 1, the palm tree: a search from index 0 over the rows in
     order numbers the nodes 1 … n in preorder ([num]; [node] inverts
     it). A half-edge to an unvisited node is a tree arc; one to an
     earlier node other than the parent is a frond; the other half of
     each link is no arc, so every link is one arc, and a half-edge
     s → w is a tree arc iff s is w's parent. [low1] and [low2]
     are the lowest and second-lowest numbers reachable by tree arcs
     and then at most one frond (the node's own number when no other),
     [nd] counts each node's descendants, itself included. The same
     lowpoints give connectivity and the cut vertices. *)
  let num = Array.make n 0 and node = Array.make (n + 1) 0 in
  let parent = Array.make n (-1) and nd = Array.make n 1 in
  let low1 = Array.make n 1 and low2 = Array.make n 1 in
  let next = Array.sub c.xadj 0 n and stack = Array.make n 0 in
  let top = ref 0 and count = ref 1 and scanned = ref 0 in
  let root_children = ref 0 in
  num.(0) <- 1;
  while !top >= 0 do
    let u = stack.(!top) in
    let q = next.(u) in
    if q < c.xadj.(u + 1) then begin
      next.(u) <- q + 1;
      incr scanned;
      let v = c.adj.(q) in
      if num.(v) = 0 then begin
        parent.(v) <- u;
        incr count;
        num.(v) <- !count;
        node.(!count) <- v;
        low1.(v) <- !count;
        low2.(v) <- !count;
        if u = 0 then incr root_children;
        incr top;
        stack.(!top) <- v
      end
      else if num.(v) < num.(u) && v <> parent.(u) then begin
        let x = num.(v) in
        if x < low1.(u) then begin
          low2.(u) <- low1.(u);
          low1.(u) <- x
        end
        else if x > low1.(u) then low2.(u) <- Int.min low2.(u) x
      end
    end
    else begin
      decr top;
      if !top >= 0 then begin
        let p = stack.(!top) in
        nd.(p) <- nd.(p) + nd.(u);
        if low1.(u) < low1.(p) then begin
          low2.(p) <- Int.min low1.(p) low2.(u);
          low1.(p) <- low1.(u)
        end
        else if low1.(u) = low1.(p) then low2.(p) <- Int.min low2.(p) low2.(u)
        else low2.(p) <- Int.min low2.(p) low1.(u);
        if p <> 0 && low1.(u) >= num.(p) then begin
          count_pass !scanned;
          raise (Separated [| p |])
        end
      end
    end
  done;
  count_pass !scanned;
  if !count < n then raise (Separated [||]);
  if !root_children > 1 then raise (Separated [| 0 |]);
  (* Each node's arcs ordered by φ: a tree arc v → w costs 3·lowpt1(w),
     plus 2 when lowpt2(w) ≥ v; a frond v ↪ w costs 3·w + 1. One
     counting sort by φ, then a stable one by source row into [arcs],
     each row [oxadj.(v) … oxadj.(v + 1) - 1]. A half-edge's source is
     the end of its link that is not its target. *)
  let phi s q =
    let w = c.adj.(q) in
    if parent.(w) = s then if low2.(w) < num.(s) then 3 * low1.(w) else (3 * low1.(w)) + 2
    else if num.(w) < num.(s) && w <> parent.(s) then (3 * num.(w)) + 1
    else -1
  in
  let source q =
    let k = c.eid.(q) in
    let a = c.ends.(2 * k) in
    if a = c.adj.(q) then c.ends.((2 * k) + 1) else a
  in
  let bucket = Array.make ((3 * n) + 4) 0 and oxadj = Array.make (n + 1) 0 in
  for s = 0 to n - 1 do
    for q = c.xadj.(s) to c.xadj.(s + 1) - 1 do
      let f = phi s q in
      if f >= 0 then begin
        bucket.(f + 1) <- bucket.(f + 1) + 1;
        oxadj.(s + 1) <- oxadj.(s + 1) + 1
      end
    done
  done;
  for f = 1 to (3 * n) + 3 do
    bucket.(f) <- bucket.(f) + bucket.(f - 1)
  done;
  for v = 1 to n do
    oxadj.(v) <- oxadj.(v) + oxadj.(v - 1)
  done;
  let by_phi = Array.make m 0 in
  for s = 0 to n - 1 do
    for q = c.xadj.(s) to c.xadj.(s + 1) - 1 do
      let f = phi s q in
      if f >= 0 then begin
        by_phi.(bucket.(f)) <- q;
        bucket.(f) <- bucket.(f) + 1
      end
    done
  done;
  let arcs = Array.make m 0 and last_tree = Array.make n (-1) in
  Array.blit oxadj 0 next 0 n;
  Array.iter
    (fun q ->
      let s = source q in
      let i = next.(s) in
      arcs.(i) <- q;
      if parent.(c.adj.(q)) = s then last_tree.(s) <- i;
      next.(s) <- i + 1)
    by_phi;
  (* Pass 2, the paths: the same tree walked in [arcs] order. A node
     is numbered [counter - nd + 1] on entry, and [counter] drops by one
     each time a child is done, so each subtree holds a range of
     numbers and earlier children the higher ranges ([newnum]; [at]
     inverts it). An arc starts a path when it is the first one out of
     the root or follows a frond. [high.(w)] is the number of the source
     of the first frond into [w] the walk meets, 0 when none. *)
  let newnum = Array.make n 0 and at = Array.make (n + 1) 0 in
  let start = Array.make m false and high = Array.make n 0 in
  let counter = ref n and fresh = ref true in
  Array.blit oxadj 0 next 0 n;
  newnum.(0) <- 1;
  top := 0;
  scanned := 0;
  while !top >= 0 do
    let v = stack.(!top) in
    let i = next.(v) in
    if i < oxadj.(v + 1) then begin
      incr scanned;
      let q = arcs.(i) in
      let w = c.adj.(q) in
      if !fresh then begin
        start.(i) <- true;
        fresh := false
      end;
      if parent.(w) = v then begin
        newnum.(w) <- !counter - nd.(w) + 1;
        at.(newnum.(w)) <- w;
        incr top;
        stack.(!top) <- w
      end
      else begin
        if high.(w) = 0 then high.(w) <- newnum.(v);
        fresh := true;
        next.(v) <- i + 1
      end
    end
    else begin
      decr top;
      if !top >= 0 then begin
        decr counter;
        let p = stack.(!top) in
        next.(p) <- next.(p) + 1
      end
    end
  done;
  count_pass !scanned;
  (* Lowpoints are ancestors, whose order both numberings share. *)
  for v = 0 to n - 1 do
    low1.(v) <- newnum.(node.(low1.(v)));
    low2.(v) <- newnum.(node.(low2.(v)))
  done;
  (* Pass 3, the path search, in numbers from here on. Triples (h, a, b)
     on the stack each stand for a candidate type-2 pair {a, b} whose
     separated side reaches up to h; an end-of-segment mark (a = -1)
     closes the triples of each path the search enters, and one more
     sits at the bottom. *)
  let cap = (2 * m) + 2 in
  let th = Array.make cap 0 and ta = Array.make cap (-1) and tb = Array.make cap 0 in
  let t = ref 0 in
  let push h a b =
    incr t;
    th.(!t) <- h;
    ta.(!t) <- a;
    tb.(!t) <- b
  in
  (* Pops every triple above the mark with a > [x] and pushes one in
     their place: (the largest of [floor] and their h, [x], the last
     one's b); with none to pop, pushes ([h], [x], [b]). *)
  let merge ~floor h x b =
    if ta.(!t) > x then begin
      let y = ref floor and last = ref 0 in
      while ta.(!t) > x do
        y := Int.max !y th.(!t);
        last := tb.(!t);
        decr t
      done;
      push !y x !last
    end
    else push h x b
  in
  let separated s =
    count_pass !scanned;
    raise (Separated s)
  in
  Array.blit oxadj 0 next 0 n;
  top := 0;
  scanned := 0;
  while !top >= 0 do
    let v = stack.(!top) in
    let i = next.(v) in
    if i < oxadj.(v + 1) then begin
      incr scanned;
      let q = arcs.(i) in
      let w = c.adj.(q) in
      if parent.(w) = v then begin
        if start.(i) then begin
          let h = newnum.(w) + nd.(w) - 1 in
          merge ~floor:h h low1.(w) newnum.(v);
          push 0 (-1) 0
        end;
        incr top;
        stack.(!top) <- w
      end
      else begin
        if start.(i) then merge ~floor:0 newnum.(v) newnum.(w) newnum.(v);
        next.(v) <- i + 1
      end
    end
    else begin
      decr top;
      if !top >= 0 then begin
        let w = v and v = stack.(!top) in
        let i = next.(v) and x = newnum.(v) in
        (* Type-2 pairs {v, b}: a triple with a = v whose b is not a
           child of v. Gutwenger and Mutzel's second case, a child of
           degree 2, cannot arise before a split. *)
        if x <> 1 then
          while ta.(!t) = x do
            let b = at.(tb.(!t)) in
            if parent.(b) = v then decr t else separated [| v; b |]
          done;
        (* A type-1 pair {lowpt1(w), v}: w's subtree reaches past v only
           at lowpt1(w), and something lies beyond the two. *)
        if low2.(w) >= x && low1.(w) < x && (parent.(v) <> 0 || i < last_tree.(v)) then
          separated [| at.(low1.(w)); v |];
        if start.(i) then begin
          while ta.(!t) <> -1 do
            decr t
          done;
          decr t
        end;
        while ta.(!t) <> -1 && ta.(!t) <> x && tb.(!t) <> x && high.(v) > th.(!t) do
          decr t
        done;
        next.(v) <- i + 1
      end
    end
  done;
  count_pass !scanned

(* A node of degree below 3 is cut off by its neighbours; otherwise the
   search decides. [None] when [c], of at least 4 nodes, is
   3-vertex-connected. *)
let separator (c : Csr.t) =
  let rec low i =
    if i = c.n then None
    else if c.xadj.(i + 1) - c.xadj.(i) < 3 then
      Some (Array.sub c.adj c.xadj.(i) (c.xadj.(i + 1) - c.xadj.(i)))
    else low (i + 1)
  in
  match low 0 with
  | Some _ as s -> s
  | None -> ( match search c with () -> None | exception Separated s -> Some s)

(* One breadth-first search of [c] minus [sep]: a separator must leave
   some node unreached. *)
let check_separator (c : Csr.t) sep =
  let cut = Array.make c.n false and queue = Array.make c.n 0 in
  Array.iter (fun x -> cut.(x) <- true) sep;
  let rec root i = if cut.(i) then root (i + 1) else i in
  let r = root 0 in
  cut.(r) <- true;
  queue.(0) <- r;
  let head = ref 0 and tail = ref 1 in
  while !head < !tail do
    let u = queue.(!head) in
    incr head;
    for q = c.xadj.(u) to c.xadj.(u + 1) - 1 do
      let v = c.adj.(q) in
      if not cut.(v) then begin
        cut.(v) <- true;
        queue.(!tail) <- v;
        incr tail
      end
    done
  done;
  Nettomo_util.Invariant.require
    (!tail < c.n - Array.length sep)
    "Separation: the graph minus {%s} is still connected"
    (String.concat ", " (Array.to_list (Array.map (fun x -> string_of_int c.ids.(x)) sep)))

let three_connected (c : Csr.t) =
  c.n >= 4
  &&
  match separator c with
  | None -> true
  | Some sep ->
      Nettomo_util.Invariant.check (fun () -> check_separator c sep);
      false

let is_three_vertex_connected_flat c =
  Nettomo_obs.Obs.Trace.span "graph.three_connectivity" @@ fun () -> three_connected c

let is_three_vertex_connected g =
  Nettomo_obs.Obs.Trace.span "graph.three_connectivity" @@ fun () ->
  three_connected (Csr.of_graph g)
