open Nettomo_graph
module Net = Nettomo_core.Net
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

(* Deterministic BFS over the sorted Csr rows: parent, the link index to
   the parent, depth, and the visit order. *)
let bfs (csr : Csr.t) root =
  let n = csr.n in
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
    for k = csr.xadj.(u) to csr.xadj.(u + 1) - 1 do
      let v = csr.adj.(k) in
      if depth.(v) < 0 then begin
        depth.(v) <- depth.(u) + 1;
        parent.(v) <- u;
        parent_eid.(v) <- csr.eid.(k);
        Queue.add v queue
      end
    done
  done;
  (parent, parent_eid, depth, order, !filled)

let plan net =
  let csr = flatten net in
  Nettomo_obs.Obs.Trace.span "measure.plan" @@ fun () ->
  match Net.monitor_list net with
  | [] | [ _ ] -> Error "needs at least two monitors"
  | r :: s :: _ ->
      let root = Csr.index csr r and second = Csr.index csr s in
      let parent, parent_eid, depth, order, reached = bfs csr root in
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

let n_measurements t = t.csr.m

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

let walk_nodes t i = List.map (fun ix -> t.csr.ids.(ix)) (walk_indices t i)

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
   tree detours between monitors, kept only when node-simple. *)

let lca parent depth a b =
  let a = ref a and b = ref b in
  while depth.(!a) > depth.(!b) do
    a := parent.(!a)
  done;
  while depth.(!b) > depth.(!a) do
    b := parent.(!b)
  done;
  while !a <> !b do
    a := parent.(!a);
    b := parent.(!b)
  done;
  !a

let climb parent a stop =
  let rec go x acc = if x = stop then List.rev (x :: acc) else go parent.(x) (x :: acc) in
  go a []

let tree_path parent depth a b =
  let anc = lca parent depth a b in
  let asc = climb parent a anc and bsc = climb parent b anc in
  asc @ List.tl (List.rev bsc)

let simple_candidates ?(max_roots = 8) ?(max_per_link = 3) net =
  let csr = flatten net in
  let monitors = List.map (Csr.index csr) (Net.monitor_list net) in
  let roots =
    let rec take k = function
      | [] -> []
      | _ when k = 0 -> []
      | x :: tl -> x :: take (k - 1) tl
    in
    take max_roots monitors
  in
  let to_ids ixs = List.map (fun ix -> csr.ids.(ix)) ixs in
  (* [on_stem.(x) = !stamp] marks the nodes of the current r → u stem.
     Stem and tail are tree paths, each node-simple, so a detour is
     simple iff its tail avoids the stem. *)
  let on_stem = Array.make csr.n (-1) and stamp = ref 0 in
  let acc = ref [] in
  List.iter
    (fun r ->
      let parent, _peid, depth, _order, _reached = bfs csr r in
      (* Tree paths to every other reachable monitor. *)
      List.iter
        (fun b ->
          if b <> r && depth.(b) >= 0 then
            acc := to_ids (tree_path parent depth r b) :: !acc)
        monitors;
      (* Tree–chord–tree detours: r → u, (u,v), v → b. *)
      for k = 0 to csr.m - 1 do
        let iu, iv = Csr.endpoints csr k in
        if depth.(iu) >= 0 && depth.(iv) >= 0 then
          List.iter
            (fun (u, v) ->
              (* Skip tree links: the detour degenerates to a tree path. *)
              if parent.(u) <> v && parent.(v) <> u then begin
                let stem = List.rev (climb parent u r) in
                incr stamp;
                List.iter (fun x -> on_stem.(x) <- !stamp) stem;
                let emitted = ref 0 in
                List.iter
                  (fun b ->
                    if !emitted < max_per_link && b <> r && depth.(b) >= 0
                    then begin
                      let tail = tree_path parent depth v b in
                      if List.for_all (fun x -> on_stem.(x) <> !stamp) tail
                      then begin
                        acc := to_ids (stem @ tail) :: !acc;
                        incr emitted
                      end
                    end)
                  monitors
              end)
            [ (iu, iv); (iv, iu) ]
      done)
    roots;
  List.rev !acc

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
