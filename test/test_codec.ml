(* The persistent store's contract: which keys a session publishes and
   the exact bytes it publishes under them. The pin below was computed
   once and must never move — a changed key or payload orphans every
   store already on disk. The QCheck properties then fuzz each artifact
   family's codec: encoding round-trips under the session's answer
   equality, and no truncated, bit-flipped or random payload makes a
   decoder raise. *)

open Nettomo_graph
open Nettomo_core
module Session = Nettomo_engine.Session
module Codec = Nettomo_engine.Codec
module Store = Nettomo_store.Store
module Checksum = Nettomo_util.Checksum
module Coverage = Nettomo_coverage.Coverage
module Solve = Nettomo_measure.Solve
module NS = Graph.NodeSet
module ES = Graph.EdgeSet
module EM = Graph.EdgeMap
module G = QCheck2.Gen

let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* Pinned keys and payload digests                                     *)

(* Every query kind on three fixtures: Petersen with three monitors
   (κ ≥ 3, one 10-node block for the tri/sep pieces), Fig. 6 with its
   two monitors for classify, and classify on Petersen for an [Error]
   answer. Keys use only file-name-safe characters, so an entry's file
   name is its key plus the store suffix. *)
let pinned_entries dir =
  let store = Store.open_dir dir in
  let k3 =
    Session.create ~seed:7 ~store
      (Net.create Fixtures.petersen ~monitors:[ 0; 1; 2 ])
  in
  ignore (Session.identifiable k3);
  ignore (Session.mmp k3);
  ignore (Session.plan k3);
  ignore (Session.coverage k3);
  ignore (Session.augment k3 ~k:2);
  ignore (Session.solve k3);
  ignore (Session.classify k3);
  let k2 =
    Session.create ~seed:7 ~store
      (Net.create Fixtures.fig6
         ~monitors:[ Fixtures.fig6_m1; Fixtures.fig6_m2 ])
  in
  ignore (Session.classify k2);
  List.map
    (fun (e : Store.entry) ->
      let key =
        Filename.chop_suffix (Filename.basename e.Store.file) ".ntst"
      in
      let digest =
        match Store.find store key with
        | Some payload -> Checksum.to_hex (Checksum.fnv64 payload)
        | None -> "unreadable"
      in
      (key, digest))
    (Store.entries dir)

let expected_entries =
  [
    ("aug-b335cf4e737f929c-7c4cced89428d4bf-7-2", "0f50c0616b71bf53");
    ("cls-42298bfe13240f02-fc8741cdb328b11d", "dba1c5db1cbcd83d");
    ("cls-b335cf4e737f929c-7c4cced89428d4bf", "985e81f1f8b37100");
    ("cov-b335cf4e737f929c-7c4cced89428d4bf-7", "91290f6869b01e57");
    ("id-b335cf4e737f929c-7c4cced89428d4bf", "d2f6a1e0e9218982");
    ("mmp-b335cf4e737f929c", "9fc4532da8c93439");
    ("plan-b335cf4e737f929c-7c4cced89428d4bf-7", "0f05118bffa9d414");
    ("sep-b335cf4e737f929c", "9e5a574cfe530302");
    ("sol-b335cf4e737f929c-7c4cced89428d4bf-7", "1901f9040369d4bb");
    ("tri-b335cf4e737f929c", "d5ed238ef7677a8f");
  ]

let test_pinned_store () =
  Fixtures.with_temp_dir "codec" (fun dir ->
      check
        Alcotest.(list (pair string string))
        "store keys and payload digests" expected_entries (pinned_entries dir))

(* ------------------------------------------------------------------ *)
(* Generators                                                          *)

let gen_node = G.oneof [ G.int_range (-3) 40; G.int ]

let gen_edge =
  G.map2
    (fun u d -> Graph.edge u (u + 1 + d))
    (G.int_range (-3) 40) (G.int_bound 20)

let small_list g = G.list_size (G.int_bound 6) g
let gen_path = small_list gen_node
let gen_nodes = G.map NS.of_list (small_list gen_node)
let gen_edge_set = G.map ES.of_list (small_list gen_edge)
let gen_error = G.string_size ~gen:G.char (G.int_bound 12)

let gen_result g =
  G.frequency [ (3, G.map Result.ok g); (1, G.map Result.error gen_error) ]

let gen_map gen_v =
  G.map
    (List.fold_left (fun acc (e, v) -> EM.add e v acc) EM.empty)
    (small_list (G.pair gen_edge gen_v))

let gen_kind =
  G.oneof
    [
      G.map
        (fun (pa, pb, pc, pd) -> Classify.Cross_link { pa; pb; pc; pd })
        (G.quad gen_path gen_path gen_path gen_path);
      G.map
        (fun (pa, pb, via) -> Classify.Shortcut { pa; pb; via })
        (G.triple gen_path gen_path gen_path);
      G.pure Classify.Unclassified;
    ]

let gen_report =
  G.map
    (fun (monitors, by_degree, by_triconnected, (by_biconnected, top_up)) ->
      { Mmp.monitors; by_degree; by_triconnected; by_biconnected; top_up })
    (G.quad gen_nodes gen_nodes gen_nodes (G.pair gen_nodes gen_nodes))

(* Decoding a plan rebuilds its measurement space from the network it
   is decoded against; the answer equality ignores the space. *)
let plan_net = Net.create Fixtures.fig1 ~monitors:[ 0; 1; 2 ]

let gen_plan =
  G.map
    (fun paths ->
      {
        Solver.space = Measurement.space (Net.graph plan_net);
        paths;
        rank = List.length paths;
      })
    (small_list gen_path)

let gen_component =
  G.map
    (fun (nodes, edges, virtuals) -> { Triconnected.nodes; edges; virtuals })
    (G.triple gen_nodes gen_edge_set gen_edge_set)

let gen_coverage =
  let gen_reason =
    G.oneofl
      Coverage.
        [
          Whole_network; Monitor_link; Low_degree; Unmeasurable; Block_theorem;
          Block_rank; Rank; Unresolved;
        ]
  in
  G.map2
    (fun mode verdicts ->
      let part want =
        EM.fold
          (fun e (v : Coverage.verdict) acc ->
            if Bool.equal v.Coverage.identifiable want then ES.add e acc
            else acc)
          verdicts ES.empty
      in
      {
        Coverage.mode;
        verdicts;
        identifiable = part true;
        unidentifiable = part false;
      })
    (G.oneofl Coverage.[ Structural; Exact; Sampled ])
    (gen_map
       (G.map2
          (fun identifiable reason -> { Coverage.identifiable; reason })
          G.bool gen_reason))

let gen_augment =
  G.map
    (fun (requested, added, (coverage_before, coverage_after), full) ->
      { Coverage.requested; added; coverage_before; coverage_after; full })
    (G.quad gen_node (small_list gen_node) (G.pair G.float G.float) G.bool)

let gen_solution =
  G.map2
    (fun pairs measurements ->
      {
        Solve.links = Array.of_list (List.map fst pairs);
        metrics = Array.of_list (List.map snd pairs);
        measurements;
      })
    (small_list (G.pair gen_edge G.float))
    gen_node

(* ------------------------------------------------------------------ *)
(* Families                                                            *)

type family =
  | Family : {
      name : string;
      gen : 'a G.t;
      codec : 'a Codec.t;
      equal : 'a -> 'a -> bool;
    }
      -> family

let answers equal = Session.equal_result equal

let equal_component (a : Triconnected.component) b =
  NS.equal a.Triconnected.nodes b.Triconnected.nodes
  && ES.equal a.Triconnected.edges b.Triconnected.edges
  && ES.equal a.Triconnected.virtuals b.Triconnected.virtuals

let families =
  [
    Family
      {
        name = "id";
        gen = gen_result G.bool;
        codec = Codec.identifiable;
        equal = answers Bool.equal;
      };
    Family
      {
        name = "cls";
        gen = gen_result (gen_map gen_kind);
        codec = Codec.classification;
        equal = answers Session.equal_classification;
      };
    Family
      {
        name = "mmp";
        gen = gen_result gen_report;
        codec = Codec.report;
        equal = answers Session.equal_report;
      };
    Family
      {
        name = "plan";
        gen = gen_result gen_plan;
        codec = Codec.plan ~net:plan_net;
        equal = answers Session.equal_plan;
      };
    Family
      {
        name = "tri";
        gen = small_list gen_component;
        codec = Codec.components;
        equal = List.equal equal_component;
      };
    Family
      {
        name = "sep";
        gen = small_list gen_edge;
        codec = Codec.edges;
        equal = List.equal Graph.edge_equal;
      };
    Family
      {
        name = "cov";
        gen = gen_result gen_coverage;
        codec = Codec.coverage;
        equal = answers Session.equal_coverage;
      };
    Family
      {
        name = "aug";
        gen = gen_result gen_augment;
        codec = Codec.augment;
        equal = answers Session.equal_augment;
      };
    Family
      {
        name = "sol";
        gen = gen_result gen_solution;
        codec = Codec.solution;
        equal = answers Session.equal_solution;
      };
  ]

let prop_round_trip (Family f) =
  QCheck2.Test.make ~count:300
    ~name:(Printf.sprintf "%s: decode (encode v) = v" f.name)
    f.gen
    (fun v ->
      match Codec.decode f.codec (Codec.encode f.codec v) with
      | Some v' -> f.equal v v'
      | None -> false)

(* Every prefix, every position overwritten by a different byte, and
   an unrelated random string: each may decode to [None] or to some
   value, but must return. *)
let prop_never_raises (Family f) =
  QCheck2.Test.make ~count:200
    ~name:(Printf.sprintf "%s: damaged payloads never raise" f.name)
    G.(triple f.gen (int_range 1 255) (string_size ~gen:char (int_bound 64)))
    (fun (v, delta, noise) ->
      let s = Codec.encode f.codec v in
      let n = String.length s in
      let flip i =
        String.mapi
          (fun j c ->
            if j = i then Char.chr ((Char.code c + delta) land 255) else c)
          s
      in
      List.iter
        (fun d -> ignore (Codec.decode f.codec d))
        ((noise :: List.init n (String.sub s 0)) @ List.init n flip);
      true)

let suite =
  Alcotest.test_case "pinned store keys and payloads" `Quick test_pinned_store
  :: List.concat_map
       (fun f ->
         [
           QCheck_alcotest.to_alcotest (prop_round_trip f);
           QCheck_alcotest.to_alcotest (prop_never_raises f);
         ])
       families
