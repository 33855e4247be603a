module NS = Graph.NodeSet
module ES = Graph.EdgeSet
module Metrics = Nettomo_obs.Obs.Metrics

type component = { nodes : NS.t; edges : ES.t }

type result = { components : component list; cut_vertices : NS.t }

type flat = {
  n_blocks : int;
  block_of_link : int array;
  head : int array;
  is_cut : bool array;
  component : int array;
  n_components : int;
}

type members = { links : int array array; nodes : int array array }

(* Work counters of the lowpoint DFS: one run per search, and the
   half-edges it scanned. Deterministic for a given input, so benches
   gate on them where wall time is too noisy. *)
let dfs_runs = Metrics.counter "graph_lowpoint_dfs_total"
let adjacency_scanned = Metrics.counter "graph_adjacency_scanned_total"

let count_run scanned =
  Metrics.incr dfs_runs;
  Metrics.incr ~by:scanned adjacency_scanned

(* Iterative Tarjan biconnected-components DFS over the Csr rows, with
   links on the edge stack by number. A link is skipped as the parent
   link by number, which in a simple graph is the one half-edge back to
   the parent. *)
let decompose_csr (c : Csr.t) =
  let n = c.n and m = c.m in
  let disc = Array.make n (-1) and low = Array.make n 0 in
  let parent = Array.make n (-1) and parent_link = Array.make n (-1) in
  (* Position in [c.adj] of each node's next unscanned neighbour. *)
  let next = Array.sub c.xadj 0 n in
  let stack = Array.make n 0 and links = Array.make m 0 in
  let block_of_link = Array.make m (-1) and head = Array.make m 0 in
  let is_cut = Array.make n false and component = Array.make n (-1) in
  let time = ref 0 and n_blocks = ref 0 and n_components = ref 0 in
  let top = ref (-1) and n_links = ref 0 and scanned = ref 0 in
  for root = 0 to n - 1 do
    if disc.(root) < 0 then begin
      let comp = !n_components in
      incr n_components;
      disc.(root) <- !time;
      low.(root) <- !time;
      component.(root) <- comp;
      incr time;
      let root_children = ref 0 in
      top := 0;
      stack.(0) <- root;
      while !top >= 0 do
        let u = stack.(!top) in
        let q = next.(u) in
        if q < c.xadj.(u + 1) then begin
          next.(u) <- q + 1;
          incr scanned;
          let v = c.adj.(q) and k = c.eid.(q) in
          if k = parent_link.(u) then ()
          else if disc.(v) < 0 then begin
            if u = root then incr root_children;
            parent.(v) <- u;
            parent_link.(v) <- k;
            links.(!n_links) <- k;
            incr n_links;
            disc.(v) <- !time;
            low.(v) <- !time;
            component.(v) <- comp;
            incr time;
            incr top;
            stack.(!top) <- v
          end
          else if disc.(v) < disc.(u) then begin
            links.(!n_links) <- k;
            incr n_links;
            if disc.(v) < low.(u) then low.(u) <- disc.(v)
          end
        end
        else begin
          decr top;
          let p = parent.(u) in
          if p >= 0 then begin
            if low.(u) < low.(p) then low.(p) <- low.(u);
            if low.(u) >= disc.(p) then begin
              (* (p, u) closes a block: the links stacked since it, down
                 to and including it. p is a cut vertex unless it is the
                 root, whose status depends on its child count. *)
              if p <> root then is_cut.(p) <- true;
              let b = !n_blocks in
              let closing = parent_link.(u) and popping = ref true in
              while !popping do
                decr n_links;
                let k = links.(!n_links) in
                block_of_link.(k) <- b;
                popping := k <> closing
              done;
              head.(b) <- p;
              incr n_blocks
            end
          end
        end
      done;
      if !root_children > 1 then is_cut.(root) <- true
    end
  done;
  count_run !scanned;
  {
    n_blocks = !n_blocks;
    block_of_link;
    head = Array.sub head 0 !n_blocks;
    is_cut;
    component;
    n_components = !n_components;
  }

(* The same lowpoint DFS cut down to cut vertices and connectivity, for
   sweeps that ask about G − v for every v: it keeps no edge stack and
   builds no block, and its buffers are allocated once per flattened
   graph. [search skip] marks the cut vertices of the graph minus the
   index [skip] (-1 for none) in [is_cut] and returns its number of
   connected components. *)
let cut_vertices_without (c : Csr.t) =
  let n = c.n in
  let disc = Array.make n (-1) and low = Array.make n 0 in
  let parent = Array.make n (-1) and stack = Array.make n 0 in
  let next = Array.make n 0 and is_cut = Array.make n false in
  let search skip =
    Array.fill disc 0 n (-1);
    Array.fill is_cut 0 n false;
    let time = ref 0 and scanned = ref 0 and components = ref 0 in
    for r = 0 to n - 1 do
      if disc.(r) < 0 && r <> skip then begin
        incr components;
        disc.(r) <- !time;
        low.(r) <- !time;
        parent.(r) <- -1;
        next.(r) <- c.xadj.(r);
        incr time;
        stack.(0) <- r;
        let top = ref 0 and root_children = ref 0 in
        while !top >= 0 do
          let u = stack.(!top) in
          let q = next.(u) in
          if q < c.xadj.(u + 1) then begin
            next.(u) <- q + 1;
            incr scanned;
            let v = c.adj.(q) in
            if v = skip || v = parent.(u) then ()
            else if disc.(v) < 0 then begin
              if u = r then incr root_children;
              parent.(v) <- u;
              disc.(v) <- !time;
              low.(v) <- !time;
              next.(v) <- c.xadj.(v);
              incr time;
              incr top;
              stack.(!top) <- v
            end
            else if disc.(v) < low.(u) then low.(u) <- disc.(v)
          end
          else begin
            decr top;
            let p = parent.(u) in
            if p >= 0 then begin
              if low.(u) < low.(p) then low.(p) <- low.(u);
              if p <> r && low.(u) >= disc.(p) then is_cut.(p) <- true
            end
          end
        done;
        (* A root with a second child is a cut vertex. *)
        if !root_children > 1 then is_cut.(r) <- true
      end
    done;
    count_run !scanned;
    !components
  in
  (is_cut, search)

module Internal = struct
  let decompose_csr = decompose_csr
  let cut_vertices_without = cut_vertices_without
end

let decompose_flat c =
  Nettomo_obs.Obs.Trace.span "graph.biconnected" @@ fun () -> decompose_csr c

(* Links by counting sort on their block; each block's nodes as its
   head, then its links' endpoints in order of first appearance, marked
   with the block's number. A block of [l] links has at most [l + 1]
   nodes. *)
let members (c : Csr.t) f =
  let size = Array.make f.n_blocks 0 in
  Array.iter (fun b -> size.(b) <- size.(b) + 1) f.block_of_link;
  let links = Array.map (fun s -> Array.make s 0) size in
  Array.fill size 0 f.n_blocks 0;
  Array.iteri
    (fun k b ->
      links.(b).(size.(b)) <- k;
      size.(b) <- size.(b) + 1)
    f.block_of_link;
  let seen = Array.make c.n (-1) in
  let nodes =
    Array.mapi
      (fun b ls ->
        let h = f.head.(b) in
        let ns = Array.make (Array.length ls + 1) h and len = ref 1 in
        seen.(h) <- b;
        let note x =
          if seen.(x) <> b then begin
            seen.(x) <- b;
            ns.(!len) <- x;
            incr len
          end
        in
        Array.iter
          (fun k ->
            note c.ends.(2 * k);
            note c.ends.((2 * k) + 1))
          ls;
        if !len = Array.length ns then ns else Array.sub ns 0 !len)
      links
  in
  { links; nodes }

let decompose g =
  Nettomo_obs.Obs.Trace.span "graph.biconnected" @@ fun () ->
  let c = Csr.of_graph g in
  let f = decompose_csr c in
  let nodes = Array.make f.n_blocks NS.empty
  and edges = Array.make f.n_blocks ES.empty in
  for k = 0 to c.m - 1 do
    let b = f.block_of_link.(k) in
    let ((u, v) as e) = Csr.edge c k in
    nodes.(b) <- NS.add u (NS.add v nodes.(b));
    edges.(b) <- ES.add e edges.(b)
  done;
  (* Isolated nodes first, in increasing order, then the blocks, the
     last one the search closed first. *)
  let blocks =
    List.init f.n_blocks (fun i ->
        let b = f.n_blocks - 1 - i in
        { nodes = nodes.(b); edges = edges.(b) })
  in
  let components = ref blocks in
  for i = c.n - 1 downto 0 do
    if c.xadj.(i) = c.xadj.(i + 1) then
      components := { nodes = NS.singleton c.ids.(i); edges = ES.empty } :: !components
  done;
  let cut_vertices = ref NS.empty in
  Array.iteri
    (fun i cut -> if cut then cut_vertices := NS.add c.ids.(i) !cut_vertices)
    f.is_cut;
  { components = !components; cut_vertices = !cut_vertices }

let cut_vertices g = (decompose g).cut_vertices

let is_biconnected g =
  Graph.n_nodes g >= 3
  &&
  let f = decompose_csr (Csr.of_graph g) in
  f.n_components = 1 && not (Array.exists Fun.id f.is_cut)
