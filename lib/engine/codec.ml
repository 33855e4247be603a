(* Serialization of engine artifacts for the persistent store. The
   format is a flat token stream (ints, length-prefixed strings, counted
   lists) behind a per-artifact schema tag; integrity is the store
   framing's job (Nettomo_store.Store), so decoders only validate
   structure and report any mismatch as None — which the store counts as
   a corrupt skip, i.e. an ordinary miss. *)

open Nettomo_graph
module NS = Graph.NodeSet
module ES = Graph.EdgeSet
module EM = Graph.EdgeMap
module Net = Nettomo_core.Net
module Classify = Nettomo_core.Classify
module Mmp = Nettomo_core.Mmp
module Solver = Nettomo_core.Solver
module Measurement = Nettomo_core.Measurement
module Coverage = Nettomo_coverage.Coverage
module Solve = Nettomo_measure.Solve

(* ---------- writer ---------- *)

let add_int b n =
  Buffer.add_string b (string_of_int n);
  Buffer.add_char b ' '

let add_bool b v = add_int b (if v then 1 else 0)

let add_str b s =
  add_int b (String.length s);
  Buffer.add_string b s;
  Buffer.add_char b ' '

let add_list add b xs =
  add_int b (List.length xs);
  List.iter (add b) xs

let add_result add_ok b = function
  | Ok v ->
      add_int b 1;
      add_ok b v
  | Error m ->
      add_int b 0;
      add_str b m

(* Hex float literals round-trip exactly, so float fields stay
   byte-deterministic like everything else in the stream. *)
let add_float b f =
  add_str b (Printf.sprintf "%h" f)

let add_nodes b ns = add_list add_int b (NS.elements ns)

let add_edge b (u, v) =
  add_int b u;
  add_int b v

let add_edges b es = add_list add_edge b (ES.elements es)
let add_path b p = add_list add_int b p

let add_map add_v b m =
  add_list
    (fun b (e, v) ->
      add_edge b e;
      add_v b v)
    b (EM.bindings m)

(* ---------- reader ---------- *)

exception Bad
(** Local decode failure; never escapes {!decode}. *)

type reader = { s : string; mutable pos : int }

let fail () = raise Bad

let rint r =
  let n = String.length r.s in
  let start = r.pos in
  let stop = ref start in
  if !stop < n && Char.equal r.s.[!stop] '-' then incr stop;
  while
    !stop < n
    && (match r.s.[!stop] with '0' .. '9' -> true | _ -> false)
  do
    incr stop
  done;
  if !stop = start || !stop >= n || not (Char.equal r.s.[!stop] ' ') then
    fail ();
  match int_of_string (String.sub r.s start (!stop - start)) with
  | v ->
      r.pos <- !stop + 1;
      v
  | exception Failure _ -> fail ()

let rbool r = match rint r with 0 -> false | 1 -> true | _ -> fail ()

let rstr r =
  let n = rint r in
  if n < 0 || r.pos + n >= String.length r.s then fail ();
  if not (Char.equal r.s.[r.pos + n] ' ') then fail ();
  let v = String.sub r.s r.pos n in
  r.pos <- r.pos + n + 1;
  v

let rlist rd r =
  let n = rint r in
  if n < 0 then fail ();
  List.init n (fun _ -> rd r)

let rresult rok r =
  match rint r with 1 -> Ok (rok r) | 0 -> Error (rstr r) | _ -> fail ()

let rfloat r =
  match float_of_string_opt (rstr r) with Some f -> f | None -> fail ()

let rnodes r = List.fold_left (fun acc v -> NS.add v acc) NS.empty (rlist rint r)

let redge r =
  let u = rint r in
  let v = rint r in
  Graph.edge u v

let redges r = List.fold_left (fun acc e -> ES.add e acc) ES.empty (rlist redge r)
let rpath r = rlist rint r

let rmap rv r =
  List.fold_left
    (fun acc (e, v) -> EM.add e v acc)
    EM.empty
    (rlist
       (fun r ->
         let e = redge r in
         let v = rv r in
         (e, v))
       r)

(* ---------- codecs ---------- *)

type 'a t = {
  tag : string;
  write : Buffer.t -> 'a -> unit;
  read : reader -> 'a;
}

let encode c v =
  let b = Buffer.create 128 in
  add_str b c.tag;
  c.write b v;
  Buffer.contents b

let decode c s =
  let r = { s; pos = 0 } in
  match
    if not (String.equal (rstr r) c.tag) then fail ();
    let v = c.read r in
    if r.pos <> String.length s then fail ();
    v
  with
  | v -> Some v
  | exception Bad -> None
  | exception Invalid_argument _ ->
      (* a well-framed token stream can still name an impossible value,
         e.g. a self-loop rejected by Graph.edge *)
      None

(* An answer or the library's error message, under the same tag. *)
let result c =
  { tag = c.tag; write = add_result c.write; read = rresult c.read }

let key tag hashes ints =
  String.concat "-"
    ((tag :: List.map (Printf.sprintf "%016Lx") hashes)
    @ List.map string_of_int ints)

(* ---------- artifacts ---------- *)

let identifiable = result { tag = "id1"; write = add_bool; read = rbool }

let add_kind b = function
  | Classify.Cross_link { pa; pb; pc; pd } ->
      add_int b 0;
      add_path b pa;
      add_path b pb;
      add_path b pc;
      add_path b pd
  | Classify.Shortcut { pa; pb; via } ->
      add_int b 1;
      add_path b pa;
      add_path b pb;
      add_path b via
  | Classify.Unclassified -> add_int b 2

let rkind r =
  match rint r with
  | 0 ->
      let pa = rpath r in
      let pb = rpath r in
      let pc = rpath r in
      let pd = rpath r in
      Classify.Cross_link { pa; pb; pc; pd }
  | 1 ->
      let pa = rpath r in
      let pb = rpath r in
      let via = rpath r in
      Classify.Shortcut { pa; pb; via }
  | 2 -> Classify.Unclassified
  | _ -> fail ()

let classification =
  result { tag = "cls1"; write = add_map add_kind; read = rmap rkind }

let report =
  result
    {
      tag = "mmp1";
      write =
        (fun b (rep : Mmp.report) ->
          add_nodes b rep.Mmp.monitors;
          add_nodes b rep.Mmp.by_degree;
          add_nodes b rep.Mmp.by_triconnected;
          add_nodes b rep.Mmp.by_biconnected;
          add_nodes b rep.Mmp.top_up);
      read =
        (fun r ->
          let monitors = rnodes r in
          let by_degree = rnodes r in
          let by_triconnected = rnodes r in
          let by_biconnected = rnodes r in
          let top_up = rnodes r in
          { Mmp.monitors; by_degree; by_triconnected; by_biconnected; top_up });
    }

(* A plan's measurement space is a pure function of the graph, so it is
   rebuilt on decode rather than serialized — sound because plan keys
   include the full fingerprint of the state the plan was computed for. *)
let plan ~net =
  result
    {
      tag = "plan1";
      write = (fun b (p : Solver.plan) -> add_list add_path b p.Solver.paths);
      read =
        (fun r ->
          let paths = rlist rpath r in
          {
            Solver.space = Measurement.space (Net.graph net);
            paths;
            rank = List.length paths;
          });
    }

let components =
  {
    tag = "tri1";
    write =
      add_list (fun b (c : Triconnected.component) ->
          add_nodes b c.Triconnected.nodes;
          add_edges b c.Triconnected.edges;
          add_edges b c.Triconnected.virtuals);
    read =
      rlist (fun r ->
          let nodes = rnodes r in
          let edges = redges r in
          let virtuals = redges r in
          { Triconnected.nodes; edges; virtuals });
  }

let edges = { tag = "sep1"; write = add_list add_edge; read = rlist redge }

let add_mode b = function
  | Coverage.Structural -> add_int b 0
  | Coverage.Exact -> add_int b 1
  | Coverage.Sampled -> add_int b 2

let rmode r =
  match rint r with
  | 0 -> Coverage.Structural
  | 1 -> Coverage.Exact
  | 2 -> Coverage.Sampled
  | _ -> fail ()

let reason_code = function
  | Coverage.Whole_network -> 0
  | Coverage.Monitor_link -> 1
  | Coverage.Low_degree -> 2
  | Coverage.Unmeasurable -> 3
  | Coverage.Block_theorem -> 4
  | Coverage.Block_rank -> 5
  | Coverage.Rank -> 6
  | Coverage.Unresolved -> 7

let rreason r =
  match rint r with
  | 0 -> Coverage.Whole_network
  | 1 -> Coverage.Monitor_link
  | 2 -> Coverage.Low_degree
  | 3 -> Coverage.Unmeasurable
  | 4 -> Coverage.Block_theorem
  | 5 -> Coverage.Block_rank
  | 6 -> Coverage.Rank
  | 7 -> Coverage.Unresolved
  | _ -> fail ()

(* The identifiable / unidentifiable partition is a pure projection of
   the verdict map, so only the verdicts are serialized. *)
let coverage =
  result
    {
      tag = "cov1";
      write =
        (fun b (rep : Coverage.report) ->
          add_mode b rep.Coverage.mode;
          add_map
            (fun b (v : Coverage.verdict) ->
              add_bool b v.Coverage.identifiable;
              add_int b (reason_code v.Coverage.reason))
            b rep.Coverage.verdicts);
      read =
        (fun r ->
          let mode = rmode r in
          let verdicts =
            rmap
              (fun r ->
                let identifiable = rbool r in
                let reason = rreason r in
                { Coverage.identifiable; reason })
              r
          in
          let identifiable, unidentifiable =
            EM.fold
              (fun e (v : Coverage.verdict) (i, u) ->
                if v.Coverage.identifiable then (ES.add e i, u)
                else (i, ES.add e u))
              verdicts (ES.empty, ES.empty)
          in
          { Coverage.mode; verdicts; identifiable; unidentifiable });
    }

(* [measurements] always equals the link count today, but it is part of
   the artifact's meaning (how many walks were measured), so it is
   serialized rather than reconstructed. *)
let solution =
  result
    {
      tag = "sol1";
      write =
        (fun b (s : Solve.solution) ->
          add_list add_edge b (Array.to_list s.Solve.links);
          add_list add_float b (Array.to_list s.Solve.metrics);
          add_int b s.Solve.measurements);
      read =
        (fun r ->
          let links = Array.of_list (rlist redge r) in
          let metrics = Array.of_list (rlist rfloat r) in
          let measurements = rint r in
          if Array.length links <> Array.length metrics then fail ();
          { Solve.links; metrics; measurements });
    }

let augment =
  result
    {
      tag = "aug1";
      write =
        (fun b (p : Coverage.plan) ->
          add_int b p.Coverage.requested;
          add_list add_int b p.Coverage.added;
          add_float b p.Coverage.coverage_before;
          add_float b p.Coverage.coverage_after;
          add_bool b p.Coverage.full);
      read =
        (fun r ->
          let requested = rint r in
          let added = rlist rint r in
          let coverage_before = rfloat r in
          let coverage_after = rfloat r in
          let full = rbool r in
          { Coverage.requested; added; coverage_before; coverage_after; full });
    }
