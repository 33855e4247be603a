open Nettomo_graph
module NS = Graph.NodeSet
module Jsonx = Nettomo_util.Jsonx
module Pool = Nettomo_util.Pool
module Net = Nettomo_core.Net
module Classify = Nettomo_core.Classify
module Mmp = Nettomo_core.Mmp
module Solver = Nettomo_core.Solver
module Coverage = Nettomo_coverage.Coverage
module Solve = Nettomo_measure.Solve
module Edgelist = Nettomo_topo.Edgelist
module Store = Nettomo_store.Store
module Obs = Nettomo_obs.Obs

type code =
  | Bad_json
  | Bad_request
  | No_session
  | Bad_topology
  | Invalid_delta
  | Query_failed
  | Overloaded

let code_to_string = function
  | Bad_json -> "bad_json"
  | Bad_request -> "bad_request"
  | No_session -> "no_session"
  | Bad_topology -> "bad_topology"
  | Invalid_delta -> "invalid_delta"
  | Query_failed -> "query_failed"
  | Overloaded -> "overloaded"

(* Server-level errors (shedding, oversized lines) are emitted without
   a [t] in hand — the request may never have reached a session — so
   this builds the response directly. No wall_ms: the field times
   request handling, and these requests were never handled. *)
let error_response ?(id = Jsonx.Null) code msg =
  Jsonx.to_string
    (Jsonx.Obj
       [
         ("id", id);
         ("status", Jsonx.String "error");
         ("code", Jsonx.String (code_to_string code));
         ("error", Jsonx.String msg);
       ])

type t = {
  pool : Pool.t option;
  default_seed : int;
  emit_wall_ms : bool;
  store : Store.t option;
  slow_ms : float option;
  mutable session : Session.t option;
}

let create ?pool ?(seed = 7) ?(emit_wall_ms = true) ?store ?slow_ms () =
  { pool; default_seed = seed; emit_wall_ms; store; slow_ms; session = None }

(* Cheap single-field peeks for the socket dispatcher, which must
   route a line (status / scrape interception) without handing it to
   the pool. *)
let peek_op line =
  match Jsonx.parse line with
  | Error _ -> None
  | Ok req -> Option.bind (Jsonx.member "op" req) Jsonx.to_string_opt

let request_id line =
  match Jsonx.parse line with
  | Error _ -> Jsonx.Null
  | Ok req -> Option.value (Jsonx.member "id" req) ~default:Jsonx.Null

let ok_response ?(id = Jsonx.Null) payload =
  Jsonx.to_string
    (Jsonx.Obj (("id", id) :: ("status", Jsonx.String "ok") :: payload))

(* ------------------------------------------------------------------ *)
(* Request field access

   Errors throughout dispatch are [code * message] pairs: the code is
   the stable machine-readable contract, the message is human-facing
   detail that clients must not match on. *)

let ( let* ) = Result.bind

let bad_request fmt = Printf.ksprintf (fun m -> Error (Bad_request, m)) fmt

let field name req =
  match Jsonx.member name req with
  | Some v -> Ok v
  | None -> bad_request "missing field %S" name

let int_field name req =
  let* v = field name req in
  match Jsonx.to_int_opt v with
  | Some i -> Ok i
  | None -> bad_request "field %S must be an integer" name

let string_field name req =
  let* v = field name req in
  match Jsonx.to_string_opt v with
  | Some s -> Ok s
  | None -> bad_request "field %S must be a string" name

let int_list_field name req =
  let* v = field name req in
  match v with
  | Jsonx.List items ->
      List.fold_left
        (fun acc item ->
          let* acc = acc in
          match Jsonx.to_int_opt item with
          | Some i -> Ok (i :: acc)
          | None -> bad_request "field %S must list integers" name)
        (Ok []) items
      |> Result.map List.rev
  | Jsonx.Null | Jsonx.Bool _ | Jsonx.Int _ | Jsonx.Float _ | Jsonx.String _
  | Jsonx.Obj _ ->
      bad_request "field %S must be a list" name

let opt_int_field name ~default req =
  match Jsonx.member name req with
  | None -> Ok default
  | Some v -> (
      match Jsonx.to_int_opt v with
      | Some i -> Ok i
      | None -> bad_request "field %S must be an integer" name)

(* ------------------------------------------------------------------ *)
(* Payloads                                                            *)

let node_list vs = Jsonx.List (List.map (fun v -> Jsonx.Int v) vs)
let node_set_json s = node_list (NS.elements s)

let shape_payload session =
  let n = Session.net session in
  let g = Net.graph n in
  [
    ("nodes", Jsonx.Int (Graph.n_nodes g));
    ("links", Jsonx.Int (Graph.n_edges g));
    ("kappa", Jsonx.Int (Net.kappa n));
    ( "fingerprint",
      Jsonx.String (Fingerprint.to_string (Session.fingerprint session)) );
  ]

let kind_name = function
  | Classify.Cross_link _ -> "cross_link"
  | Classify.Shortcut _ -> "shortcut"
  | Classify.Unclassified -> "unclassified"

let classify_payload map =
  let links =
    Graph.EdgeMap.bindings map
    |> List.map (fun ((u, v), kind) ->
           Jsonx.Obj
             [
               ("link", node_list [ u; v ]);
               ("kind", Jsonx.String (kind_name kind));
             ])
  in
  [ ("links", Jsonx.List links) ]

let mmp_payload (r : Mmp.report) =
  [
    ("monitors", node_set_json r.Mmp.monitors);
    ("by_degree", node_set_json r.Mmp.by_degree);
    ("by_triconnected", node_set_json r.Mmp.by_triconnected);
    ("by_biconnected", node_set_json r.Mmp.by_biconnected);
    ("top_up", node_set_json r.Mmp.top_up);
  ]

let plan_payload net (p : Solver.plan) =
  [
    ("rank", Jsonx.Int p.Solver.rank);
    ("links", Jsonx.Int (Graph.n_edges (Net.graph net)));
    ("full_rank", Jsonx.Bool (Solver.full_rank net p));
    ("paths", Jsonx.List (List.map node_list p.Solver.paths));
  ]

let coverage_payload (r : Coverage.report) =
  let links =
    Graph.EdgeMap.bindings r.Coverage.verdicts
    |> List.map (fun ((u, v), (vd : Coverage.verdict)) ->
           Jsonx.Obj
             [
               ("link", node_list [ u; v ]);
               ("identifiable", Jsonx.Bool vd.Coverage.identifiable);
               ( "reason",
                 Jsonx.String (Coverage.reason_to_string vd.Coverage.reason) );
             ])
  in
  [
    ("mode", Jsonx.String (Coverage.mode_to_string r.Coverage.mode));
    ("coverage", Jsonx.Float (Coverage.coverage r));
    ( "identifiable_links",
      Jsonx.Int (Graph.EdgeSet.cardinal r.Coverage.identifiable) );
    ( "unidentifiable_links",
      Jsonx.Int (Graph.EdgeSet.cardinal r.Coverage.unidentifiable) );
    ("links", Jsonx.List links);
  ]

let solve_payload (s : Solve.solution) =
  let metrics =
    Array.to_list
      (Array.map2
         (fun (u, v) w ->
           Jsonx.Obj [ ("link", node_list [ u; v ]); ("metric", Jsonx.Float w) ])
         s.Solve.links s.Solve.metrics)
  in
  [
    ("links", Jsonx.Int (Array.length s.Solve.links));
    ("measurements", Jsonx.Int s.Solve.measurements);
    ("metrics", Jsonx.List metrics);
  ]

let augment_payload (p : Coverage.plan) =
  [
    ("requested", Jsonx.Int p.Coverage.requested);
    ("added", node_list p.Coverage.added);
    ("coverage_before", Jsonx.Float p.Coverage.coverage_before);
    ("coverage_after", Jsonx.Float p.Coverage.coverage_after);
    ("full", Jsonx.Bool p.Coverage.full);
  ]

(* ------------------------------------------------------------------ *)
(* Queries                                                             *)

(* One row per query kind: the request fields it reads, its answer from
   the live session, its answer on an immutable network snapshot, and
   the payload either renders to. *)
type query =
  | Query : {
      args : Jsonx.t -> ('b, code * string) result;
      session : Session.t -> 'b -> ('a, string) result;
      snapshot : seed:int -> 'b -> Net.t -> ('a, string) result;
      payload : Net.t -> 'a -> (string * Jsonx.t) list;
    }
      -> query

(* A row for a query that reads no request fields. *)
let plain session snapshot payload =
  Query
    {
      args = (fun _ -> Ok ());
      session = (fun s () -> session s);
      snapshot = (fun ~seed () -> snapshot ~seed);
      payload;
    }

let queries =
  [
    ( "identifiable",
      plain Session.identifiable
        (fun ~seed:_ -> Session.Scratch.identifiable)
        (fun _ v -> [ ("identifiable", Jsonx.Bool v) ]) );
    ( "classify",
      plain Session.classify
        (fun ~seed:_ -> Session.Scratch.classify)
        (fun _ -> classify_payload) );
    ( "mmp",
      plain Session.mmp
        (fun ~seed:_ -> Session.Scratch.mmp)
        (fun _ -> mmp_payload) );
    ("plan", plain Session.plan Session.Scratch.plan plan_payload);
    ( "coverage",
      plain Session.coverage Session.Scratch.coverage (fun _ ->
          coverage_payload) );
    (* [k] is the budget of monitor additions. *)
    ( "augment",
      Query
        {
          args = opt_int_field "k" ~default:1;
          session = (fun s k -> Session.augment s ~k);
          snapshot = (fun ~seed k -> Session.Scratch.augment ~seed ~k);
          payload = (fun _ -> augment_payload);
        } );
    ( "solve",
      plain Session.solve Session.Scratch.solve (fun _ -> solve_payload) );
  ]

let find_query name =
  List.find_map
    (fun (n, q) -> if String.equal n name then Some q else None)
    queries

(* A query the session accepted but the library rejected (precondition
   failure) is [Query_failed]; the message is the library's own. *)
let answer payload net r =
  Result.map_error (fun m -> (Query_failed, m)) (Result.map (payload net) r)

let eval_session s req (Query q) =
  let* args = q.args req in
  answer q.payload (Session.net s) (q.session s args)

(* Batch sub-queries are evaluated as pure from-scratch computations
   over an immutable snapshot of the network, so they can fan out over
   the pool (the mutable session is not domain-safe) and are
   deterministic across [--jobs] by the {!Pool} contract. The answers
   still equal the session's — that is the engine's differential
   invariant. Batched queries name no per-query fields, so each reads
   its defaults (augment runs with a budget of 1). *)
let eval_snapshot ~seed net (Query q) =
  let* args = q.args (Jsonx.Obj []) in
  answer q.payload net (q.snapshot ~seed args net)

let slow_entry_json (e : Obs.Slow.entry) =
  Jsonx.Obj
    [
      ("req", Jsonx.Int e.Obs.Slow.req);
      ("conn", Jsonx.Int e.Obs.Slow.conn);
      ("op", Jsonx.String e.Obs.Slow.op);
      ("session", Jsonx.String e.Obs.Slow.session);
      ("wall_ms", Jsonx.Float (e.Obs.Slow.wall_s *. 1e3));
      ("queue_ms", Jsonx.Float (e.Obs.Slow.queue_s *. 1e3));
      ( "stats",
        Jsonx.Obj
          (List.map (fun (k, v) -> (k, Jsonx.Float v)) e.Obs.Slow.stats) );
      ( "spans",
        Jsonx.List
          (List.map
             (fun (name, _ts, dur, id, parent) ->
               Jsonx.Obj
                 [
                   ("name", Jsonx.String name);
                   ("dur_ms", Jsonx.Float (dur *. 1e3));
                   ("id", Jsonx.Int id);
                   ("parent", Jsonx.Int parent);
                 ])
             e.Obs.Slow.spans) );
    ]

let slow_payload ~limit =
  [
    ("count", Jsonx.Int (Obs.Slow.length ()));
    ("capacity", Jsonx.Int (Obs.Slow.capacity ()));
    ( "entries",
      Jsonx.List (List.map slow_entry_json (Obs.Slow.recent ~limit ())) );
  ]

(* ------------------------------------------------------------------ *)
(* Dispatch                                                            *)

let require_session t =
  match t.session with
  | Some s -> Ok s
  | None -> Error (No_session, "no network loaded (send a \"load\" request first)")

let dispatch t req =
  let* op = string_field "op" req in
  match op with
  | "load" ->
      let* edges = string_field "edges" req in
      let* monitors = int_list_field "monitors" req in
      let* seed = opt_int_field "seed" ~default:t.default_seed req in
      let* g =
        Result.map_error (fun m -> (Bad_topology, m)) (Edgelist.parse edges)
      in
      let* n =
        match Net.create g ~monitors with
        | n -> Ok n
        | exception Invalid_argument m -> Error (Bad_topology, m)
      in
      let s = Session.create ~seed ?store:t.store n in
      t.session <- Some s;
      Ok (shape_payload s)
  | "delta" ->
      let* s = require_session t in
      let* action = string_field "action" req in
      let* d =
        match action with
        | "add_node" ->
            let* v = int_field "node" req in
            Ok (Session.Add_node v)
        | "remove_node" ->
            let* v = int_field "node" req in
            Ok (Session.Remove_node v)
        | "add_link" ->
            let* u = int_field "u" req in
            let* v = int_field "v" req in
            Ok (Session.Add_link (u, v))
        | "remove_link" ->
            let* u = int_field "u" req in
            let* v = int_field "v" req in
            Ok (Session.Remove_link (u, v))
        | "set_monitors" ->
            let* ms = int_list_field "monitors" req in
            Ok (Session.Set_monitors ms)
        | a -> bad_request "unknown delta action %S" a
      in
      let* () =
        Result.map_error (fun m -> (Invalid_delta, m)) (Session.apply s d)
      in
      Ok (shape_payload s)
  | "batch" ->
      let* s = require_session t in
      let* names = field "queries" req in
      let* qs =
        match names with
        | Jsonx.List items when List.length items > List.length queries ->
            (* Every name is evaluated from scratch, so the list is
               bounded by the query table: one of each kind at most. *)
            bad_request "field \"queries\" lists %d names; a batch takes at most %d"
              (List.length items) (List.length queries)
        | Jsonx.List items ->
            List.fold_left
              (fun acc item ->
                let* acc = acc in
                match Jsonx.to_string_opt item with
                | Some name -> (
                    match find_query name with
                    | Some q -> Ok (q :: acc)
                    | None -> bad_request "unknown query %S" name)
                | None -> bad_request "field \"queries\" must list query names")
              (Ok []) items
            |> Result.map List.rev
        | Jsonx.Null | Jsonx.Bool _ | Jsonx.Int _ | Jsonx.Float _
        | Jsonx.String _ | Jsonx.Obj _ ->
            bad_request "field \"queries\" must be a list"
      in
      let net = Session.net s in
      let seed = Session.seed s in
      let run q = eval_snapshot ~seed net q in
      let results =
        match t.pool with
        | Some pool -> Pool.map pool run (Array.of_list qs)
        | None -> Array.map run (Array.of_list qs)
      in
      let results =
        Array.to_list results
        |> List.map (function
             | Ok payload -> Jsonx.Obj (("status", Jsonx.String "ok") :: payload)
             | Error (code, m) ->
                 Jsonx.Obj
                   [
                     ("status", Jsonx.String "error");
                     ("code", Jsonx.String (code_to_string code));
                     ("error", Jsonx.String m);
                   ])
      in
      Ok [ ("results", Jsonx.List results) ]
  | "stats" ->
      let* s = require_session t in
      let st = Session.stats s in
      (* Store counters are always present — zero without a store — so
         the stats schema does not depend on the deployment. *)
      let sst =
        match Session.store s with
        | Some store -> Store.stats store
        | None ->
            {
              Store.hits = 0;
              misses = 0;
              corrupt_skips = 0;
              puts = 0;
              evictions = 0;
            }
      in
      Ok
        [
          ("deltas", Jsonx.Int st.Session.deltas);
          ("queries", Jsonx.Int st.Session.queries);
          ("memo_hits", Jsonx.Int st.Session.memo_hits);
          ("degree_shortcuts", Jsonx.Int st.Session.degree_shortcuts);
          ("verdict_carries", Jsonx.Int st.Session.verdict_carries);
          ("block_hits", Jsonx.Int st.Session.block_hits);
          ("block_misses", Jsonx.Int st.Session.block_misses);
          ("full_computes", Jsonx.Int st.Session.full_computes);
          ("store_hits", Jsonx.Int sst.Store.hits);
          ("store_misses", Jsonx.Int sst.Store.misses);
          ("store_corrupt_skips", Jsonx.Int sst.Store.corrupt_skips);
          ("store_puts", Jsonx.Int sst.Store.puts);
          ("store_evictions", Jsonx.Int sst.Store.evictions);
        ]
  | "metrics" ->
      (* Process-wide Obs registry dump. The session/store counters in
         "stats" read the very same registry cells, so the two views
         cannot disagree. Needs no session: a client may scrape before
         loading. *)
      Ok [ ("metrics", Jsonx.String (Obs.Metrics.dump ())) ]
  | "slow" ->
      (* The process-wide slow-request ring (see Obs.Slow); needs no
         session. [limit] caps the returned entries, newest first. *)
      let* limit = opt_int_field "limit" ~default:16 req in
      Ok (slow_payload ~limit)
  | "status" ->
      (* Liveness snapshot. In socket mode the dispatcher intercepts
         this op and answers a richer version (uptime, connections)
         without a pool round-trip; this fallback serves the stdin
         loop, where there is no dispatcher and no saturation to
         dodge. *)
      let pool_fields =
        match t.pool with
        | Some p ->
            [
              ("pool_jobs", Jsonx.Int (Pool.jobs p));
              ("pool_running", Jsonx.Int (Pool.running p));
            ]
        | None -> [ ("pool_jobs", Jsonx.Int 1); ("pool_running", Jsonx.Int 0) ]
      in
      let store_fields =
        match t.store with
        | Some s ->
            let bytes, entries = Store.occupancy s in
            [
              ("store_bytes", Jsonx.Int bytes);
              ("store_entries", Jsonx.Int entries);
            ]
        | None ->
            [ ("store_bytes", Jsonx.Int 0); ("store_entries", Jsonx.Int 0) ]
      in
      Ok
        ((("session_loaded", Jsonx.Bool (Option.is_some t.session))
         :: pool_fields)
        @ store_fields)
  | op -> (
      match find_query op with
      | None -> bad_request "unknown op %S" op
      | Some q ->
          let* s = require_session t in
          eval_session s req q)

let handle_line ?ctx t line =
  (* The request context: the socket dispatcher allocates one per line
     (with the connection id) and passes it down; the stdin loop lets
     this allocate (conn = -1). Either way the dispatch below runs
     with it installed as the ambient context, so every span and log
     event under it carries the request id. *)
  let ctx = match ctx with Some c -> c | None -> Obs.Ctx.make () in
  if Option.is_some t.slow_ms then Obs.Ctx.set_collect ctx true;
  let start = Obs.Clock.now () in
  let id, outcome =
    match Jsonx.parse line with
    | Error m -> (Jsonx.Null, Error (Bad_json, "request is not valid JSON: " ^ m))
    | Ok req ->
        let id = Option.value (Jsonx.member "id" req) ~default:Jsonx.Null in
        let op =
          match Option.bind (Jsonx.member "op" req) Jsonx.to_string_opt with
          | Some op -> op
          | None -> "?"
        in
        Obs.Ctx.set_op ctx op;
        ( id,
          Obs.Ctx.with_ctx ctx (fun () ->
              Obs.Trace.span ~attrs:[ ("op", op) ] "serve.request" (fun () ->
                  dispatch t req)) )
  in
  (match t.session with
  | Some s ->
      Obs.Ctx.set_session ctx
        (Fingerprint.to_string (Session.fingerprint s))
  | None -> ());
  (* One end-of-request clock read shared by wall_ms and the slow
     check; skipped entirely when neither is on, so a bare run's
     fake-clock tick sequence stays what it always was. *)
  let finish =
    if t.emit_wall_ms || Option.is_some t.slow_ms then Obs.Clock.now ()
    else start
  in
  let wall = Float.max 0. (finish -. start) in
  (match outcome with
  | Ok _ ->
      Obs.Log.info ~ctx "serve.request"
        [ ("op", Obs.Log.Str (Obs.Ctx.op ctx)); ("ok", Obs.Log.Bool true) ]
  | Error (code, m) ->
      Obs.Log.warn ~ctx "serve.request"
        [
          ("op", Obs.Log.Str (Obs.Ctx.op ctx));
          ("ok", Obs.Log.Bool false);
          ("code", Obs.Log.Str (code_to_string code));
          ("error", Obs.Log.Str m);
        ]);
  (match t.slow_ms with
  | Some ms when wall *. 1e3 >= ms ->
      Obs.Slow.note (Obs.Slow.of_ctx ctx ~wall_s:wall);
      Obs.Log.warn ~ctx "serve.slow"
        [
          ("op", Obs.Log.Str (Obs.Ctx.op ctx));
          ("wall_ms", Obs.Log.Float (wall *. 1e3));
          ("queue_ms", Obs.Log.Float (Obs.Ctx.queue ctx *. 1e3));
        ]
  | Some _ | None -> ());
  let base =
    [
      ("id", id);
      ( "status",
        Jsonx.String (match outcome with Ok _ -> "ok" | Error _ -> "error") );
    ]
  in
  let base =
    if t.emit_wall_ms then base @ [ ("wall_ms", Jsonx.Float (wall *. 1e3)) ]
    else base
  in
  let fields =
    match outcome with
    | Ok payload -> base @ payload
    | Error (code, m) ->
        base
        @ [
            ("code", Jsonx.String (code_to_string code));
            ("error", Jsonx.String m);
          ]
  in
  Jsonx.to_string (Jsonx.Obj fields)

(* The stdin front end and the socket server share one framing layer
   (Framing), so the "EOF mid-line is still a request" rule holds by
   construction on both paths. Blank (whitespace-only) lines are a
   protocol rule, not a framing rule, and are skipped here. *)
let serve t ic oc =
  let fr = Framing.create () in
  let buf = Bytes.create 65536 in
  let respond line =
    if String.trim line <> "" then begin
      output_string oc (handle_line t line);
      output_char oc '\n';
      flush oc
    end
  in
  let rec loop () =
    let n = input ic buf 0 (Bytes.length buf) in
    if n > 0 then begin
      List.iter respond (Framing.feed fr (Bytes.sub_string buf 0 n));
      loop ()
    end
  in
  loop ();
  match Framing.close fr with Some line -> respond line | None -> ()
