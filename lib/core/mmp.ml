module Errors = Nettomo_util.Errors
open Nettomo_graph
module NS = Graph.NodeSet
module Prng = Nettomo_util.Prng
module Trace = Nettomo_obs.Obs.Trace

type report = {
  monitors : NS.t;
  by_degree : NS.t;
  by_triconnected : NS.t;
  by_biconnected : NS.t;
  top_up : NS.t;
}

(* Pick [k] node indices from [pool], which is ascending — the smallest
   by default, uniform without replacement when a generator is
   supplied. Index order is identifier order, so these are the picks
   the same pool of identifiers gives. *)
let pick ?rng k pool =
  if k >= List.length pool then pool
  else
    match rng with
    | None -> List.filteri (fun i _ -> i < k) pool
    | Some rng -> Array.to_list (Prng.sample rng k (Array.of_list pool))

let place_flat ?rng (c : Csr.t) ~split =
  if c.n = 0 then Errors.invalid_arg "Mmp.place: empty graph";
  let flat = Biconnected.decompose_flat c in
  if flat.n_components > 1 then Errors.invalid_arg "Mmp.place: disconnected graph";
  let blocks = Biconnected.members c flat in
  (* Every block of 3 nodes or more is split, in [Biconnected.decompose]'s
     block order: the last block the search closed first. Separation
     vertices are the cut vertices and both ends of every block's
     separation pairs. *)
  let sep = Array.copy flat.is_cut in
  let pieces = Array.make flat.n_blocks [] in
  for b = flat.n_blocks - 1 downto 0 do
    if Array.length blocks.nodes.(b) >= 3 then begin
      let comps, pairs = split ~nodes:blocks.nodes.(b) ~links:blocks.links.(b) in
      pieces.(b) <- comps;
      List.iter
        (fun (u, v) ->
          sep.(Csr.index c u) <- true;
          sep.(Csr.index c v) <- true)
        pairs
    end
  done;
  let indices keep = List.filter keep (List.init c.n Fun.id) in
  let mon = Array.make c.n false and placed = ref 0 in
  let place chosen rule =
    List.fold_left
      (fun acc i ->
        mon.(i) <- true;
        incr placed;
        NS.add c.ids.(i) acc)
      rule chosen
  in
  (* Rules (i)-(ii): dangling and tandem nodes have degree < 3 and can
     never be avoided. *)
  let by_degree =
    Trace.span "mmp.degree_rule" (fun () ->
        place (indices (fun i -> c.xadj.(i + 1) - c.xadj.(i) < 3)) NS.empty)
  in
  (* Rules (iii) and (iv): a component of 3 nodes or more needs 3 that
     are [fixed] (separation vertices, resp. cut vertices) or monitors.
     With 1 or 2 fixed nodes and too few monitors it gets the missing
     ones from its other nodes. *)
  let need rule fixed nodes =
    let f = ref 0 and m = ref 0 and free = ref [] in
    List.iter
      (fun i ->
        if fixed.(i) then incr f;
        if mon.(i) then incr m;
        if not (fixed.(i) || mon.(i)) then free := i :: !free)
      nodes;
    if 0 < !f && !f < 3 && !f + !m < 3 then
      place (pick ?rng (3 - !f - !m) (List.sort Int.compare !free)) rule
    else rule
  in
  let by_triconnected = ref NS.empty and by_biconnected = ref NS.empty in
  Trace.span "mmp.component_rules" (fun () ->
      for b = flat.n_blocks - 1 downto 0 do
        if Array.length blocks.nodes.(b) >= 3 then begin
          List.iter
            (fun (t : Triconnected.component) ->
              if NS.cardinal t.nodes >= 3 then
                by_triconnected :=
                  need !by_triconnected sep
                    (List.map (Csr.index c) (NS.elements t.nodes)))
            pieces.(b);
          by_biconnected :=
            need !by_biconnected flat.is_cut (Array.to_list blocks.nodes.(b))
        end
      done);
  (* Final top-up: at least three monitors overall (or every node on
     graphs smaller than that). *)
  let top_up =
    Trace.span "mmp.top_up" (fun () ->
        let missing = 3 - !placed in
        if missing > 0 then
          place (pick ?rng missing (indices (fun i -> not mon.(i)))) NS.empty
        else NS.empty)
  in
  {
    monitors =
      NS.union by_degree
        (NS.union !by_triconnected (NS.union !by_biconnected top_up));
    by_degree;
    by_triconnected = !by_triconnected;
    by_biconnected = !by_biconnected;
    top_up;
  }

let place_report ?rng g =
  let c = Csr.of_graph g in
  let r =
    place_flat ?rng c ~split:(fun ~nodes ~links:_ ->
        Triconnected.split_biconnected
          (Graph.induced g
             (Array.fold_left (fun s i -> NS.add c.ids.(i) s) NS.empty nodes)))
  in
  Nettomo_util.Invariant.check (fun () -> Invariant.check_mmp g r.monitors);
  r

let place ?rng g = (place_report ?rng g).monitors

let as_net ?rng g = Net.create g ~monitors:(NS.elements (place ?rng g))
