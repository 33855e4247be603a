module Errors = Nettomo_util.Errors
open Nettomo_graph
module Q = Nettomo_linalg.Rational
module NS = Graph.NodeSet
module ES = Graph.EdgeSet

type kind =
  | Cross_link of {
      pa : Paths.path;
      pb : Paths.path;
      pc : Paths.path;
      pd : Paths.path;
    }
  | Shortcut of { pa : Paths.path; pb : Paths.path; via : Paths.path }
  | Unclassified

(* Path utilities: node sets and intersection cardinalities. *)
let nodes_of p = NS.of_list p

let inter_card s1 s2 = NS.cardinal (NS.inter s1 s2)

(* Join m→a and a→m' into the m→m' path through link (a, b):
   p1 ends at a, p2 starts at b. *)
let join_via_link p1 p2 = p1 @ p2

(* Join m→a, detour a→…→b, b→m'. *)
let join_via_path p1 via p2 =
  (* via starts at a (= last of p1) and ends at b (= head of p2). *)
  match via with
  | [] -> Errors.invalid_arg "Classify: empty detour"
  | _ :: via_tail ->
      let via_middle = List.filteri (fun i _ -> i < List.length via_tail - 1) via_tail in
      p1 @ via_middle @ p2

let two_monitors net =
  match Net.monitor_list net with
  | [ m1; m2 ] -> (m1, m2)
  | _ -> Errors.invalid_arg "Classify: exactly two monitors required"

(* Memoized simple-path enumeration, at most [path_limit] paths per
   endpoint pair. *)
let path_limit = 50_000

let path_cache g =
  let tbl = Hashtbl.create 64 in
  fun src dst ->
    match Hashtbl.find_opt tbl (src, dst) with
    | Some ps -> ps
    | None ->
        let ps =
          Paths.all_simple_paths ~limit:path_limit g src dst
          |> List.map (fun p -> (p, nodes_of p))
        in
        Hashtbl.replace tbl (src, dst) ps;
        ps

(* Definition 2 search for link (a, b): paths P1: m1→a, P2: a→m2,
   P3: m1→b, P4: b→m2 with |P1∩P2| = |P3∩P4| = 1 and
   P2∩P3 = P1∩P4 = ∅. *)
let find_cross_link paths m1 m2 a b =
  let p1s = paths m1 a
  and p2s = paths a m2
  and p3s = paths m1 b
  and p4s = paths b m2 in
  let result = ref None in
  (try
     List.iter
       (fun (p1, s1) ->
         if not (NS.mem b s1) then
           List.iter
             (fun (p4, s4) ->
               if (not (NS.mem a s4)) && inter_card s1 s4 = 0 then
                 List.iter
                   (fun (p2, s2) ->
                     if inter_card s1 s2 = 1 && not (NS.mem b s2) then
                       List.iter
                         (fun (p3, s3) ->
                           if
                             inter_card s3 s4 = 1
                             && inter_card s2 s3 = 0
                             && not (NS.mem a s3)
                           then begin
                             result :=
                               Some
                                 (Cross_link
                                    {
                                      pa = p1 @ List.tl p2;
                                      pb = p3 @ List.tl p4;
                                      pc = join_via_link p1 p4;
                                      pd = join_via_link p3 p2;
                                    });
                             raise Exit
                           end)
                         p3s)
                   p2s)
             p4s)
       p1s
   with Exit -> ());
  !result

let classify net =
  let m1, m2 = two_monitors net in
  let g = Net.graph net in
  let paths = path_cache g in
  let interior = Interior.interior_links net in
  let kinds = ref Graph.EdgeMap.empty in
  let known = ref ES.empty in
  (* Pass 1: cross-links. *)
  ES.iter
    (fun ((a, b) as e) ->
      match find_cross_link paths m1 m2 a b with
      | Some k ->
          kinds := Graph.EdgeMap.add e k !kinds;
          known := ES.add e !known
      | None -> kinds := Graph.EdgeMap.add e Unclassified !kinds)
    interior;
  (* Pass 2: close shortcuts under a fixpoint. *)
  let monitor_orders = [ (m1, m2); (m2, m1) ] in
  let try_shortcut (a, b) =
    let y = Graph.edge a b in
    let detours =
      paths a b
      |> List.filter (fun (p, _) ->
             List.for_all
               (fun e -> (not (Graph.edge_equal e y)) && ES.mem e !known)
               (Paths.path_edges p))
    in
    let result = ref None in
    (try
       List.iter
         (fun (ms, mt) ->
           let p1s = paths ms a and p2s = paths b mt in
           List.iter
             (fun (via, svia) ->
               List.iter
                 (fun (p1, s1) ->
                   if inter_card s1 svia = 1 then
                     List.iter
                       (fun (p2, s2) ->
                         if inter_card s2 svia = 1 && inter_card s1 s2 = 0 then begin
                           result :=
                             Some
                               (Shortcut
                                  {
                                    pa = join_via_link p1 p2;
                                    pb = join_via_path p1 via p2;
                                    via;
                                  });
                           raise Exit
                         end)
                       p2s)
                 p1s)
             detours)
         monitor_orders
     with Exit -> ());
    !result
  in
  let progress = ref true in
  while !progress do
    progress := false;
    Graph.EdgeMap.iter
      (fun ((a, b) as e) kind ->
        if kind = Unclassified then
          match try_shortcut (a, b) with
          | Some k ->
              kinds := Graph.EdgeMap.add e k !kinds;
              known := ES.add e !known;
              progress := true
          | None -> ())
      !kinds
  done;
  !kinds

let identify net weights =
  let kinds = classify net in
  let half = Q.of_ints 1 2 in
  let m = Measurement.measure weights in
  (* Resolve in dependency order: cross-links directly, then shortcuts
     whose vias are sums of already-resolved links (or exact ground-truth
     measurements of the witness paths, which is the same thing). *)
  Graph.EdgeMap.fold
    (fun e kind acc ->
      match kind with
      | Cross_link w ->
          let wy =
            Q.mul half
              (Q.sub (Q.add (m w.pc) (m w.pd)) (Q.add (m w.pa) (m w.pb)))
          in
          (e, wy) :: acc
      | Shortcut w ->
          let wvia = m w.via in
          let wy = Q.add (Q.sub (m w.pa) (m w.pb)) wvia in
          (e, wy) :: acc
      | Unclassified -> acc)
    kinds []
  |> List.rev

(* ------------------------------------------------------------------ *)
(* Non-separating cycles (Definition 4)                                *)

let is_cycle g nodes =
  match nodes with
  | _ :: _ :: _ :: _ ->
      let arr = Array.of_list nodes in
      let n = Array.length arr in
      let distinct = NS.cardinal (NS.of_list nodes) = n in
      distinct
      && Array.for_all Fun.id
           (Array.init n (fun i -> Graph.mem_edge g arr.(i) arr.((i + 1) mod n)))
  | _ -> false

let is_induced_cycle g nodes =
  is_cycle g nodes
  &&
  let set = NS.of_list nodes in
  (* An induced cycle has exactly |C| links among its nodes. *)
  Graph.n_edges (Graph.induced g set) = List.length nodes

let is_non_separating_cycle net nodes =
  let g = Net.graph net in
  is_induced_cycle g nodes
  &&
  let set = NS.of_list nodes in
  Traversal.components ~avoid_nodes:set g
  |> List.for_all (fun comp ->
         not (NS.is_empty (NS.inter comp (Net.monitors net))))

(* Candidate cycles examined before [non_separating_cycles] gives up. *)
let cycle_limit = 100_000

let non_separating_cycles net =
  let g = Net.graph net in
  let seen = Hashtbl.create 32 in
  let out = ref [] in
  let examined = ref 0 in
  (* Enumerate cycles rooted at their smallest node: DFS over simple
     paths s → v using only nodes > s, closing when v is adjacent to s. *)
  let consider cycle_nodes =
    incr examined;
    if !examined > cycle_limit then raise Paths.Limit_exceeded;
    let key = List.sort Int.compare cycle_nodes in
    if not (Hashtbl.mem seen key) then begin
      Hashtbl.replace seen key ();
      if is_non_separating_cycle net cycle_nodes then out := cycle_nodes :: !out
    end
  in
  (* [path] holds the nodes after [s], most recent first; [v] is the
     current node. Restricting to nodes > s roots each cycle at its
     smallest node; direction duplicates are removed by [seen]. *)
  let rec dfs s path visited v =
    incr examined;
    if !examined > cycle_limit then raise Paths.Limit_exceeded;
    NS.iter
      (fun u ->
        if u > s && not (NS.mem u visited) then begin
          if path <> [] && Graph.mem_edge g u s then
            consider (s :: List.rev (u :: path));
          dfs s (u :: path) (NS.add u visited) u
        end)
      (Graph.neighbors g v)
  in
  Graph.iter_nodes
    (fun s -> dfs s [] (NS.singleton s) s)
    g;
  List.rev !out
