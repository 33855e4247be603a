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
   tree detours between monitors, kept only when node-simple, each
   emitted as its ascending link numbers. *)
let max_roots = 8
let max_per_link = 3

let simple_candidates (csr : Csr.t) ~monitor =
  let monitors = List.filter (Array.get monitor) (List.init csr.n Fun.id) in
  let roots = List.filteri (fun i _ -> i < max_roots) monitors in
  (* [on_stem.(x) = !stamp] marks the nodes of the current r → u stem.
     Stem and tail are tree paths, each node-simple, so a detour is
     simple iff its tail avoids the stem. *)
  let on_stem = Array.make csr.n (-1) and stamp = ref 0 in
  let acc = ref [] in
  List.iter
    (fun r ->
      let { Csr.parent; parent_eid; depth; _ } = Csr.bfs csr r in
      let emit cols = acc := { Solver.src = r; cols = List.sort Int.compare cols } :: !acc in
      (* The links from [x] up to its ancestor [a], onto [links]. *)
      let rec up x a links = if x = a then links else up parent.(x) a (parent_eid.(x) :: links) in
      let rec lca a b =
        if a = b then a
        else if depth.(a) >= depth.(b) then lca parent.(a) b
        else lca a parent.(b)
      in
      (* Tree paths to every other reachable monitor. *)
      List.iter (fun b -> if b <> r && depth.(b) >= 0 then emit (up b r [])) monitors;
      (* Tree–chord–tree detours r → u, (u,v), v → b across link [k].
         The stem holds every ancestor of its nodes, so the tail meets
         it iff the tail's top node, lca(v, b), is on it. *)
      let detour k u v =
        incr stamp;
        let rec mark x =
          on_stem.(x) <- !stamp;
          if x <> r then mark parent.(x)
        in
        mark u;
        let emitted = ref 0 in
        List.iter
          (fun b ->
            if !emitted < max_per_link && b <> r && depth.(b) >= 0 then begin
              let a = lca v b in
              if on_stem.(a) <> !stamp then begin
                emit (up u r (k :: up v a (up b a [])));
                incr emitted
              end
            end)
          monitors
      in
      for k = 0 to csr.m - 1 do
        let iu, iv = Csr.endpoints csr k in
        (* Skip tree links: the detour degenerates to a tree path. *)
        if depth.(iu) >= 0 && depth.(iv) >= 0 && parent.(iu) <> iv && parent.(iv) <> iu
        then begin
          detour k iu iv;
          detour k iv iu
        end
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
