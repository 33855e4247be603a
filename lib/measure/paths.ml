open Nettomo_graph
module Net = Nettomo_core.Net
module Solver = Nettomo_core.Solver
module Invariant_gate = Nettomo_util.Invariant

type kind = Trunk | Probe of int | Chord of int

type t = {
  csr : Csr.t;
  root : int;
  second : int;
  parent : int array;
  parent_eid : int array;
  depth : int array;
  order : int array;
  kinds : kind array;
  probe_row : int array;
  chord_row : int array;
}

let flatten net =
  Nettomo_obs.Obs.Trace.span "measure.csr" @@ fun () -> Csr.of_graph (Net.graph net)

let plan net =
  let csr = flatten net in
  Nettomo_obs.Obs.Trace.span "measure.plan" @@ fun () ->
  match Net.monitor_list net with
  | [] | [ _ ] -> Error "needs at least two monitors"
  | r :: s :: _ ->
      let root = Csr.index csr r and second = Csr.index csr s in
      let { Csr.parent; parent_eid; depth; order; reached } = Csr.bfs csr root in
      if reached < csr.n then Error "disconnected topology"
      else begin
        let n = csr.n and m = csr.m in
        let kinds = Array.make m Trunk in
        let probe_row = Array.make n (-1)
        and chord_row = Array.make m (-1) in
        let row = ref 1 in
        for v = 0 to n - 1 do
          if v <> root && v <> second then begin
            kinds.(!row) <- Probe v;
            probe_row.(v) <- !row;
            incr row
          end
        done;
        let tree_link = Array.make m false in
        Array.iter (fun k -> if k >= 0 then tree_link.(k) <- true) parent_eid;
        for k = 0 to m - 1 do
          if not tree_link.(k) then begin
            kinds.(!row) <- Chord k;
            chord_row.(k) <- !row;
            incr row
          end
        done;
        if !row <> m then
          Nettomo_util.Errors.invalid_arg "Measure.Paths.plan: measurement row accounting";
        let t =
          {
            csr;
            root;
            second;
            parent;
            parent_eid;
            depth;
            order;
            kinds;
            probe_row;
            chord_row;
          }
        in
        Ok t
      end

(* Tree path root → v as index and link-index lists, root side first. *)
let down_nodes t v =
  let rec go v acc = if v < 0 then acc else go t.parent.(v) (v :: acc) in
  go v []

let down_eids t v =
  let rec go v acc =
    if t.parent.(v) < 0 then acc else go t.parent.(v) (t.parent_eid.(v) :: acc)
  in
  go v []

let walk_indices t i =
  let trunk = down_nodes t t.second in
  match t.kinds.(i) with
  | Trunk -> trunk
  | Probe v ->
      let dn = down_nodes t v in
      dn @ List.tl (List.rev dn) @ List.tl trunk
  | Chord k ->
      let u, v = Csr.endpoints t.csr k in
      down_nodes t u @ List.rev (down_nodes t v) @ List.tl trunk

let walk_eids t i =
  let trunk = down_eids t t.second in
  match t.kinds.(i) with
  | Trunk -> trunk
  | Probe v ->
      let dn = down_eids t v in
      dn @ List.rev dn @ trunk
  | Chord k ->
      let u, v = Csr.endpoints t.csr k in
      down_eids t u @ (k :: List.rev (down_eids t v)) @ trunk

let measure t w =
  Nettomo_obs.Obs.Trace.span "measure.measure" @@ fun () ->
  let n = t.csr.n and m = t.csr.m in
  if Array.length w <> m then
    Nettomo_util.Errors.invalid_arg "Measure.Paths.measure: weight vector length mismatch";
  let phi = Array.make n 0.0 in
  Array.iter
    (fun v ->
      if v >= 0 && t.parent.(v) >= 0 then
        phi.(v) <- phi.(t.parent.(v)) +. w.(t.parent_eid.(v)))
    t.order;
  let a = phi.(t.second) in
  Array.map
    (function
      | Trunk -> a
      | Probe v -> (2.0 *. phi.(v)) +. a
      | Chord k ->
          let u, v = Csr.endpoints t.csr k in
          phi.(u) +. w.(k) +. phi.(v) +. a)
    t.kinds

(* Simple-path candidates for the paper's measurement model, used by the
   coverage sampled fallback: deterministic tree paths and tree–chord–
   tree detours between monitors, kept only when node-simple, each
   emitted as its ascending link numbers, less the detours the rows
   before them provably span. Returns the roots, whose tree rows are
   emitted in full. *)
let max_roots = 8
let max_per_link = 3

let simple_candidates (csr : Csr.t) ~monitor emit =
  let monitors = List.filter (Array.get monitor) (List.init csr.n Fun.id) in
  let roots = List.filteri (fun i _ -> i < max_roots) monitors in
  (* One buffer for every row: a simple path has at most one link per
     node. *)
  let row = Array.make csr.n 0 and len = ref 0 in
  let push k =
    row.(!len) <- k;
    incr len
  in
  (* [firsts.(max_per_link * x + i)] is the i-th smallest monitor in the
     subtree of [x], -1 past the last. *)
  let firsts = Array.make (max_per_link * csr.n) (-1) in
  (* Union–find over the current root's tree nodes: [x] and [y] share a
     class only when A_x − A_y lies in the span of the rows emitted for
     that root, writing A_x for the tree path x → r (A_r = 0). *)
  let uf = Array.make csr.n 0 in
  let rec find x =
    let p = uf.(x) in
    if p = x then x
    else begin
      uf.(x) <- uf.(p);
      find uf.(x)
    end
  in
  let insert x b =
    let rec go i b =
      if i < max_per_link then begin
        let slot = (max_per_link * x) + i in
        let c = firsts.(slot) in
        if c < 0 then firsts.(slot) <- b
        else if b < c then begin
          firsts.(slot) <- b;
          go (i + 1) c
        end
        else go (i + 1) b
      end
    in
    go 0 b
  in
  List.iter
    (fun r ->
      let { Csr.parent; parent_eid; depth; order; reached } = Csr.bfs csr r in
      let emit_row () =
        Solver.sort_row row !len;
        emit r row !len;
        len := 0
      in
      (* The links from [x] up to its ancestor [a]. *)
      let rec up x a =
        if x <> a then begin
          push parent_eid.(x);
          up parent.(x) a
        end
      in
      let rec lca a b =
        if a = b then a
        else if depth.(a) >= depth.(b) then lca parent.(a) b
        else lca a parent.(b)
      in
      (* Subtrees are disjoint, so one bottom-up pass over the BFS order
         merges each node's list into its parent's, children first. *)
      for i = reached - 1 downto 0 do
        let x = order.(i) in
        if monitor.(x) then insert x x;
        if parent.(x) >= 0 then
          for s = max_per_link * x to (max_per_link * x) + max_per_link - 1 do
            if firsts.(s) >= 0 then insert parent.(x) firsts.(s)
          done
      done;
      for i = 0 to reached - 1 do
        uf.(order.(i)) <- order.(i)
      done;
      (* Tree paths to every other reachable monitor: each row is A_b,
         so the root and those monitors form one class. *)
      List.iter
        (fun b ->
          if b <> r && depth.(b) >= 0 then begin
            up b r;
            emit_row ();
            uf.(b) <- r
          end)
        monitors;
      (* Tree–chord–tree detours r → u, (u,v), v → b across link [k].
         Stem and tail are tree paths, each node-simple, so a detour is
         simple iff its tail avoids the stem r → u, which holds every
         ancestor of its nodes: iff the tail's top node lca(v, b) is not
         an ancestor of w = lca(u, v). That top node is an ancestor of
         v, so it is off the stem exactly when it lies below w, which is
         when b is in the subtree of w's child c on the way to v. The
         first monitors of that subtree are the ones a scan in index
         order would keep. In a BFS tree a non-tree link joins nodes
         whose depths differ by at most one, neither the other's parent,
         so neither is an ancestor of the other and c exists.

         The detour whose tail meets at a = lca(v, b) is the row
         A_u + A_v + e_k + A_b − 2·A_a, in either orientation of k, and
         its monitor b lies below c, off the root, so A_b is a tree row.
         Two detours across k thus differ by A_b − A_b' − 2·(A_a − A_a'):
         one whose meeting point shares a class with that of k's first
         detour, [first], is spanned by the rows before it and is
         skipped; emitting any other puts its meeting point in that
         class. *)
      let rec below_lca x y =
        if depth.(x) > depth.(y) then below_lca parent.(x) y
        else if depth.(y) > depth.(x) then below_lca x parent.(y)
        else if parent.(x) = parent.(y) then y
        else below_lca parent.(x) parent.(y)
      in
      let first = ref (-1) in
      let detour k u v =
        let c = below_lca u v in
        for s = max_per_link * c to (max_per_link * c) + max_per_link - 1 do
          let b = firsts.(s) in
          if b >= 0 then begin
            let a = lca v b in
            if !first < 0 || find a <> find !first then begin
              if !first < 0 then first := a else uf.(find a) <- find !first;
              up u r;
              push k;
              up v a;
              up b a;
              emit_row ()
            end
          end
        done
      in
      for k = 0 to csr.m - 1 do
        let iu, iv = Csr.endpoints csr k in
        (* Skip tree links: the detour degenerates to a tree path. *)
        if depth.(iu) >= 0 && depth.(iv) >= 0 && parent.(iu) <> iv && parent.(iv) <> iu
        then begin
          first := -1;
          detour k iu iv;
          detour k iv iu
        end
      done;
      for i = 0 to reached - 1 do
        Array.fill firsts (max_per_link * order.(i)) max_per_link (-1)
      done)
    roots;
  roots

module Invariant = struct
  let check net t =
    let req = Invariant_gate.require in
    let csr = t.csr in
    let n = csr.n and m = csr.m in
    req (Array.length t.kinds = m) "Paths: %d measurements for %d links"
      (Array.length t.kinds) m;
    req
      (Net.is_monitor net csr.ids.(t.root) && Net.is_monitor net csr.ids.(t.second))
      "Paths: endpoints are not monitors";
    (* Every link is covered exactly once: tree links by the parent
       relation, the rest by chord rows. *)
    let covered = Array.make m 0 in
    Array.iter (fun k -> if k >= 0 then covered.(k) <- covered.(k) + 1)
      t.parent_eid;
    Array.iteri (fun k r -> if r >= 0 then covered.(k) <- covered.(k) + 1)
      t.chord_row;
    Array.iteri
      (fun k c -> req (c = 1) "Paths: link %d covered %d times" k c)
      covered;
    (* Every walk is a genuine r → s walk of the graph. *)
    for i = 0 to m - 1 do
      let nodes = walk_indices t i and eids = walk_eids t i in
      req (List.length nodes = List.length eids + 1)
        "Paths: walk %d node/link lengths disagree" i;
      (match nodes with
      | first :: _ -> req (first = t.root) "Paths: walk %d starts off-root" i
      | [] -> Invariant_gate.violation "Paths: empty walk");
      req (List.nth nodes (List.length nodes - 1) = t.second)
        "Paths: walk %d does not end at the second monitor" i;
      let rec steps nodes eids =
        match (nodes, eids) with
        | x :: (y :: _ as rest), k :: ks ->
            let a, b = Csr.endpoints csr k in
            req
              ((a = x && b = y) || (a = y && b = x))
              "Paths: walk %d step %d-%d does not traverse link %d" i x y k;
            steps rest ks
        | _ -> ()
      in
      steps nodes eids
    done;
    req (n < 2 || t.root <> t.second) "Paths: degenerate endpoints"
end
