(* The per-layer view: spans folded into per-name and per-layer
   aggregates, the registry counters and histograms the libraries
   already export, and the table of layer metrics built from both.

   The suite measures each layer from outside. Its own spans wrap the
   calls it makes into the layers' public functions (Session create and
   queries), and it folds in the spans and registry instruments lib/
   already emits; it adds none under lib/.

   The tracer keeps closed spans in a fixed ring. [fold] drains the ring
   between operations (never while a span is open), so a traced run
   keeps every span no matter how long it is, and the table states how
   many spans it folded and how many the ring dropped before a fold. *)

module Obs = Nettomo_obs.Obs
module Jsonx = Nettomo_util.Jsonx

type agg = {
  mutable calls : int;
  mutable busy : float;  (** summed span durations, seconds *)
  mutable child : float;  (** summed durations of direct children *)
}

type t = {
  names : (string, agg) Hashtbl.t;
  outer : (string, float) Hashtbl.t;
      (** per layer (first dotted component of the span name): time
          inside the layer's outermost spans, so nested spans of one
          layer are counted once *)
  mutable folded : int;
  mutable lost : int;
  mutable id_base : int;
  chrome : out_channel option;
  mutable first : bool;
  t0 : float;
}

let layer_of name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name

let create ?chrome () =
  let chrome =
    Option.map
      (fun path ->
        let oc = open_out path in
        output_string oc "{\"traceEvents\":[";
        oc)
      chrome
  in
  {
    names = Hashtbl.create 64;
    outer = Hashtbl.create 16;
    folded = 0;
    lost = 0;
    id_base = 0;
    chrome;
    first = true;
    t0 = Obs.Clock.now ();
  }

let agg t name =
  match Hashtbl.find_opt t.names name with
  | Some a -> a
  | None ->
      let a = { calls = 0; busy = 0.; child = 0. } in
      Hashtbl.replace t.names name a;
      a

let add_outer t layer dur =
  let prev = Option.value (Hashtbl.find_opt t.outer layer) ~default:0. in
  Hashtbl.replace t.outer layer (prev +. dur)

let json_str s = Jsonx.to_string (Jsonx.String s)

(* One span: [parent] is the parent span's id ([-1] at a root) and
   [parent_name] its name when the parent was seen. *)
let add_span t ~name ~ts ~dur ~tid ~id ~parent ~parent_name =
  let a = agg t name in
  a.calls <- a.calls + 1;
  a.busy <- a.busy +. dur;
  (match parent_name with
  | Some p ->
      let pa = agg t p in
      pa.child <- pa.child +. dur
  | None -> ());
  let layer = layer_of name in
  (match parent_name with
  | Some p when String.equal (layer_of p) layer -> ()
  | Some _ | None -> add_outer t layer dur);
  t.folded <- t.folded + 1;
  match t.chrome with
  | None -> ()
  | Some oc ->
      if not t.first then output_char oc ',';
      t.first <- false;
      Printf.fprintf oc
        "\n{\"name\":%s,\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%d,\"args\":{\"span\":\"%d\"%s}}"
        (json_str name) (ts *. 1e6) (dur *. 1e6) tid id
        (if parent >= 0 then Printf.sprintf ",\"parent\":\"%d\"" parent else "")

(* Drain the in-process ring into [t] and clear it. Call only between
   operations: the span-id allocator restarts at the clear, so ids are
   rebased per chunk to stay unique in the Chrome file. *)
let fold t =
  let total =
    List.fold_left (fun acc (_, (c, _)) -> acc + c) 0 (Obs.Trace.summary ())
  in
  let events = Obs.Trace.events () and records = Obs.Trace.records () in
  t.lost <- t.lost + (total - List.length events);
  let names_by_id = Hashtbl.create (List.length records) in
  List.iter (fun (name, id, _, _, _) -> Hashtbl.replace names_by_id id name) records;
  let max_id = ref 0 in
  List.iter2
    (fun (name, ts, dur, tid) (_, id, parent, _, _) ->
      max_id := max !max_id id;
      add_span t ~name ~ts:(ts -. t.t0) ~dur ~tid ~id:(id + t.id_base)
        ~parent:(if parent >= 0 then parent + t.id_base else -1)
        ~parent_name:(Hashtbl.find_opt names_by_id parent))
    events records;
  t.id_base <- t.id_base + !max_id + 1;
  Obs.Trace.clear ()

(* Fold once the ring is half full, so no single operation can wrap it
   between two folds unless it alone emits 32k spans. *)
let maybe_fold t =
  let total =
    List.fold_left (fun acc (_, (c, _)) -> acc + c) 0 (Obs.Trace.summary ())
  in
  if total >= 32_768 then fold t

let close t =
  match t.chrome with
  | None -> ()
  | Some oc ->
      output_string oc "\n]}\n";
      close_out oc

let calls t name = match Hashtbl.find_opt t.names name with Some a -> a.calls | None -> 0
let busy t name = match Hashtbl.find_opt t.names name with Some a -> a.busy | None -> 0.

let self t name =
  match Hashtbl.find_opt t.names name with
  | Some a -> Float.max 0. (a.busy -. a.child)
  | None -> 0.

let layer_busy t layer = Option.value (Hashtbl.find_opt t.outer layer) ~default:0.

(* Every span name with its calls, busy and self time, sorted by name. *)
let table t =
  Hashtbl.fold (fun name a acc -> (name, a) :: acc) t.names []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  |> List.map (fun (name, a) -> (name, a.calls, a.busy, self t name))

(* ------------------------------------------------------------------ *)
(* Registry instruments                                                *)

(* A Prometheus text dump summed by series name (labels dropped):
   ["pool_task_seconds_sum{slot=\"0\"} 1.5"] and its slot-1 sibling add
   up under ["pool_task_seconds_sum"]. *)
let parse_registry text =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun line ->
      match String.rindex_opt line ' ' with
      | Some i when i > 0 && line.[0] <> '#' -> (
          let key = String.sub line 0 i in
          let key =
            match String.index_opt key '{' with Some j -> String.sub key 0 j | None -> key
          in
          match float_of_string_opt (String.sub line (i + 1) (String.length line - i - 1)) with
          | Some v ->
              let prev = Option.value (Hashtbl.find_opt tbl key) ~default:0. in
              Hashtbl.replace tbl key (prev +. v)
          | None -> ())
      | Some _ | None -> ())
    (String.split_on_char '\n' text);
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let reg registry name = Option.value (List.assoc_opt name registry) ~default:0.

let ratio num den = if den > 0. then num /. den else 0.

(* ------------------------------------------------------------------ *)
(* The layer table                                                     *)

(* Every per-layer metric, in the order BENCHMARK.json lists them, with
   its unit. A workload that does not reach a layer reports 0. *)
let metric_units =
  [
    ("graph.split.calls", "count");
    ("graph.split.busy_s", "s");
    ("graph.cut_pairs.calls", "count");
    ("graph.cut_pairs.busy_s", "s");
    ("graph.three_connectivity.busy_s", "s");
    ("graph.biconnected.busy_s", "s");
    ("mmp.busy_s", "s");
    ("solver.independent_paths.calls", "count");
    ("solver.independent_paths.busy_s", "s");
    ("coverage.classify.busy_s", "s");
    ("coverage.rank_fallback.calls", "count");
    ("coverage.rank_fallback.busy_s", "s");
    ("coverage.nonmonotone_points", "count");
    ("coverage.sampled_frac", "ratio");
    ("coverage.auc", "ratio");
    ("measure.csr.busy_s", "s");
    ("measure.plan.busy_s", "s");
    ("measure.measure.busy_s", "s");
    ("measure.solve.busy_s", "s");
    ("session.apply.busy_s", "s");
    ("session.query.identifiable.busy_s", "s");
    ("session.query.identifiable.self_s", "s");
    ("session.query.mmp.busy_s", "s");
    ("session.query.mmp.self_s", "s");
    ("session.query.coverage.busy_s", "s");
    ("session.query.coverage.self_s", "s");
    ("session.query.solve.busy_s", "s");
    ("session.query.solve.self_s", "s");
    ("session.memo_hit_ratio", "ratio");
    ("session.shortcut_ratio", "ratio");
    ("session.block_hit_ratio", "ratio");
    ("session.full_computes", "count");
    ("obs.trace_overhead_frac", "ratio");
    ("trace.spans_folded", "count");
    ("trace.spans_lost", "count");
    ("trace.attributed_frac", "ratio");
  ]

(* The part of the table read off spans and the registry; [extra]
   carries what only the workload knows (coverage curve shape, tracing
   overhead) and wins over the derived values. *)
let metrics t ~registry ~extra =
  let r = reg registry in
  let queries = r "session_queries_total" in
  let derived =
    [
      ("graph.split.calls", float_of_int (calls t "graph.triconnected.split"));
      ("graph.split.busy_s", busy t "graph.triconnected.split");
      ("graph.cut_pairs.calls", float_of_int (calls t "graph.separation.cut_pairs"));
      ("graph.cut_pairs.busy_s", busy t "graph.separation.cut_pairs");
      ("graph.three_connectivity.busy_s", busy t "graph.three_connectivity");
      ("graph.biconnected.busy_s", busy t "graph.biconnected");
      ("mmp.busy_s", layer_busy t "mmp");
      ( "solver.independent_paths.calls",
        float_of_int (calls t "solver.independent_paths") );
      ("solver.independent_paths.busy_s", busy t "solver.independent_paths");
      ("coverage.classify.busy_s", busy t "coverage.classify");
      ("coverage.rank_fallback.calls", float_of_int (calls t "coverage.rank_fallback"));
      ("coverage.rank_fallback.busy_s", busy t "coverage.rank_fallback");
      ("measure.csr.busy_s", busy t "measure.csr");
      ("measure.plan.busy_s", busy t "measure.plan");
      ("measure.measure.busy_s", busy t "measure.measure");
      ("measure.solve.busy_s", busy t "measure.solve");
      ("session.apply.busy_s", busy t "session.apply");
    ]
    @ List.concat_map
        (fun q ->
          let name = "session.query." ^ q in
          [ (name ^ ".busy_s", busy t name); (name ^ ".self_s", self t name) ])
        [ "identifiable"; "mmp"; "coverage"; "solve" ]
    @ [
        ("session.memo_hit_ratio", ratio (r "session_memo_hits_total") queries);
        ( "session.shortcut_ratio",
          ratio (r "session_degree_shortcuts_total" +. r "session_verdict_carries_total") queries );
        ( "session.block_hit_ratio",
          ratio (r "session_block_hits_total")
            (r "session_block_hits_total" +. r "session_block_misses_total") );
        ("session.full_computes", r "session_full_computes_total");
        ("trace.spans_folded", float_of_int t.folded);
        ("trace.spans_lost", float_of_int t.lost);
      ]
  in
  List.map
    (fun (name, _) ->
      let v =
        match List.assoc_opt name extra with
        | Some v -> v
        | None -> Option.value (List.assoc_opt name derived) ~default:0.
      in
      (name, v))
    metric_units
