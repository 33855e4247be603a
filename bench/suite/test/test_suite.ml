(* Tests of the benchmark itself: its statistics and calibration, the
   validity of the streams it generates, the compare verdicts, and a
   smoke run of every workload with every answer checked. *)

open Nettomo_graph
open Nettomo_suite
module Session = Nettomo_engine.Session
module Net = Nettomo_core.Net
module Jsonx = Nettomo_util.Jsonx

let feq = Alcotest.float 1e-12

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)

let one_to n = List.init n (fun i -> float_of_int (i + 1))

let test_quantile () =
  let xs = one_to 20 in
  Alcotest.check feq "p50 of 1..20" 10. (Stats.quantile xs 0.5);
  Alcotest.check feq "p95 of 1..20" 19. (Stats.quantile xs 0.95);
  Alcotest.check feq "p100" 20. (Stats.quantile xs 1.);
  Alcotest.check feq "p0 is the minimum" 1. (Stats.quantile xs 0.);
  Alcotest.check feq "order does not matter" 10. (Stats.quantile (List.rev xs) 0.5);
  Alcotest.(check bool) "no samples" true (Float.is_nan (Stats.quantile [] 0.5))

let test_supported () =
  Alcotest.(check (option (float 0.))) "200 samples support p95" (Some 95.)
    (Stats.supported_percentile 200);
  Alcotest.(check (option (float 0.))) "1000 support p99" (Some 99.)
    (Stats.supported_percentile 1000);
  Alcotest.(check (option (float 0.))) "10 support nothing" None (Stats.supported_percentile 10)

(* Reference values from Python: statistics.quantiles(range(1, 11), n=4)
   = [2.75, 5.5, 8.25]; statistics.quantiles([3, 1, 2], n=4)
   = [1.0, 2.0, 3.0]. *)
let test_quartiles () =
  let q1, q2, q3 = Stats.quartiles (one_to 10) in
  Alcotest.check feq "q1" 2.75 q1;
  Alcotest.check feq "median" 5.5 q2;
  Alcotest.check feq "q3" 8.25 q3;
  let q1, q2, q3 = Stats.quartiles [ 3.; 1.; 2. ] in
  Alcotest.check feq "q1 of 3" 1. q1;
  Alcotest.check feq "q2 of 3" 2. q2;
  Alcotest.check feq "q3 of 3" 3. q3

(* The kernel must not allocate: an allocation could start a minor
   collection, and the kernel's time would then include the program's
   garbage-collection work. *)
let test_kernel_allocates_nothing () =
  Calib.kernel ();
  let before = Gc.minor_words () in
  Calib.kernel ();
  Calib.kernel ();
  let words = Gc.minor_words () -. before in
  (* Gc.minor_words itself boxes its float result. *)
  Alcotest.(check bool) (Printf.sprintf "%.0f words allocated" words) true (words <= 8.)

let test_scale () =
  (* A kernel this much slower than the reference halves a time. *)
  let r = Calib.reference_s and slow = 2. ** (1. /. Calib.exponent) in
  Alcotest.(check (array feq)) "checkpoints apply to the pieces after them"
    [| 0.5; 0.1; 1.5 |]
    (Calib.scale [| (0, slow *. r); (2, slow *. r); (3, slow *. r) |] [| 1.; 0.2; 3. |]);
  Alcotest.(check (array feq)) "the two checkpoints around a piece are averaged" [| 0.5 |]
    (Calib.scale [| (0, 0.5 *. slow *. r); (1, 1.5 *. slow *. r) |] [| 1. |]);
  Alcotest.(check (array feq)) "at the reference speed times stay as measured" [| 0.25 |]
    (Calib.scale [| (0, r); (1, r) |] [| 0.25 |]);
  Alcotest.check feq "speed is the reference over the median kernel" 0.5
    (Calib.speed { Calib.last = 0.; marks = [ (2, r); (1, 9. *. r); (0, 2. *. r) ] })

(* ------------------------------------------------------------------ *)
(* Generated streams                                                   *)

let ebone_world seed =
  let g = Inputs.ebone () in
  let monitors = Inputs.mmp_monitors g in
  (Inputs.world ~seed g monitors, Session.create ~seed (Net.create g ~monitors))

let applies s d =
  match Session.apply s d with
  | Ok () -> ()
  | Error m -> Alcotest.failf "delta rejected: %s" m

let test_core_walk () =
  let w, s = ebone_world 7 in
  for step = 0 to 299 do
    let before = w.Inputs.g in
    let d = Inputs.core_delta w in
    (match d with
    | Session.Remove_link (u, v) ->
        Alcotest.(check bool) "never a bridge" false
          (Graph.EdgeSet.mem (Graph.edge u v) (Bridges.bridges before))
    | Session.Add_link _ -> ()
    | Session.Add_node _ | Session.Remove_node _ | Session.Set_monitors _ ->
        Alcotest.fail "the core walk only fails and recovers links");
    applies s d;
    let phase = step mod (2 * Inputs.max_down) in
    Alcotest.(check int) "links down climb to 8 and back"
      (if phase < Inputs.max_down then phase + 1 else (2 * Inputs.max_down) - phase - 1)
      (List.length w.Inputs.down);
    Alcotest.(check bool) "session and shadow agree" true
      (Graph.equal (Net.graph (Session.net s)) w.Inputs.g)
  done

let test_access_stream () =
  let w, s = ebone_world 11 in
  for _ = 1 to 300 do
    let d = Inputs.access_delta w in
    applies s d;
    Alcotest.(check bool) "at most 16 leaves attached" true
      (List.length w.Inputs.attached <= Inputs.max_leaves);
    Alcotest.(check bool) "session and shadow agree" true
      (Graph.equal (Net.graph (Session.net s)) w.Inputs.g
      && Graph.NodeSet.equal (Net.monitors (Session.net s))
           (Graph.NodeSet.of_list w.Inputs.monitors))
  done;
  Alcotest.(check bool) "the original links are all still there" true
    (List.for_all (fun (u, v) -> Graph.mem_edge w.Inputs.g u v) (Graph.edges (Inputs.ebone ())))

let test_mixed_stream () =
  let w, s = ebone_world 5 in
  for i = 1 to 300 do
    applies s (if i mod 5 = 0 then Inputs.core_delta w else Inputs.access_delta w)
  done

let test_budgets () =
  Alcotest.(check (list int)) "m = 65" [ 2; 8; 14; 20; 26; 32; 38; 44; 50; 56; 62; 65 ]
    (Inputs.budgets 65);
  Alcotest.(check (list int)) "m = 2" [ 2 ] (Inputs.budgets 2)

(* ------------------------------------------------------------------ *)
(* Compare                                                             *)

let write_run dir ~i ~workload ~metrics =
  let path = Filename.concat dir (Printf.sprintf "%s-%02d.json" workload i) in
  Jsonx.write_file path
    (Jsonx.Obj
       [
         ("workload", Jsonx.String workload);
         ("schema", Jsonx.String Report.schema);
         ("seed", Jsonx.Int i);
         ( "metrics",
           Jsonx.Obj
             (List.map
                (fun (k, v) -> (k, Jsonx.Obj [ ("value", Jsonx.Float v); ("unit", Jsonx.String "x") ]))
                metrics) );
         ("extra", Jsonx.Obj [ ("failed_frac", Jsonx.Float 0.) ]);
       ])

let fresh name = Workload.fresh_dir name

let bounds =
  [
    ("ops_per_s", { Compare.better_lower = false; rel = 0.10; floor = 0. });
    ("latency_p50_ms", { Compare.better_lower = true; rel = 0.10; floor = 0.2 });
  ]

let verdicts parent change =
  Compare.rows ~bounds (Compare.load parent) (Compare.load change)
  |> List.map (fun r -> (r.Compare.metric, Compare.verdict_name r.Compare.verdict))

(* Ten runs a side: steady ops_per_s around 100 and latency around 10
   ms, shifted or spread as each case needs. *)
let synthetic name ~ops ~lat =
  let dir = fresh name in
  List.iter
    (fun i -> write_run dir ~i ~workload:"w" ~metrics:[ ("ops_per_s", ops i); ("latency_p50_ms", lat i) ])
    (List.init 10 Fun.id);
  dir

let wobble i = float_of_int ((i * 7) mod 5) *. 0.002

let test_compare_verdicts () =
  let parent = synthetic "cmp-parent" ~ops:(fun i -> 100. *. (1. +. wobble i)) ~lat:(fun i -> 10. *. (1. +. wobble i)) in
  let same = synthetic "cmp-same" ~ops:(fun i -> 100. *. (1. +. wobble (i + 1))) ~lat:(fun i -> 10. *. (1. +. wobble (i + 2))) in
  Alcotest.(check (list (pair string string))) "same program" [ ("ops_per_s", "ok"); ("latency_p50_ms", "ok") ]
    (verdicts parent same);
  let slower = synthetic "cmp-slower" ~ops:(fun i -> 80. *. (1. +. wobble i)) ~lat:(fun i -> 13. *. (1. +. wobble i)) in
  Alcotest.(check (list (pair string string))) "20% fewer ops, 30% more latency"
    [ ("ops_per_s", "REGRESSED"); ("latency_p50_ms", "REGRESSED") ]
    (verdicts parent slower);
  let noisy =
    synthetic "cmp-noisy" ~ops:(fun i -> if i mod 2 = 0 then 70. else 130.) ~lat:(fun i -> 10. *. (1. +. wobble i))
  in
  Alcotest.(check (list (pair string string))) "spread wider than the bound"
    [ ("ops_per_s", "unresolved"); ("latency_p50_ms", "ok") ]
    (verdicts parent noisy);
  let faster = synthetic "cmp-faster" ~ops:(fun i -> 130. *. (1. +. wobble i)) ~lat:(fun i -> 10. *. (1. +. wobble i)) in
  Alcotest.(check (list (pair string string))) "30% more ops" [ ("ops_per_s", "better"); ("latency_p50_ms", "ok") ]
    (verdicts parent faster);
  let claim change =
    Compare.claim ~bounds (Compare.load parent) (Compare.load change) ~metric:"ops_per_s" ~workload:"w"
  in
  Alcotest.(check (result (triple int int bool) string)) "claim met" (Ok (10, 10, true)) (claim faster);
  Alcotest.(check (result (triple int int bool) string)) "claim not met" (Ok (0, 10, false)) (claim slower)

let test_compare_benchmark_bounds () =
  let path = "cmp-benchmark.json" in
  Jsonx.write_file path
    (Jsonx.Obj
       [
         ( "end_to_end",
           Jsonx.List
             [
               Jsonx.Obj
                 [
                   ("name", Jsonx.String "setup_s");
                   ("unit", Jsonx.String "s");
                   ("better", Jsonx.String "lower");
                   ("bound", Jsonx.Float 0.25);
                 ];
             ] );
       ]);
  match Compare.bounds_of_benchmark path with
  | [ ("setup_s", b) ] ->
      Alcotest.(check bool) "lower is better" true b.Compare.better_lower;
      Alcotest.check feq "relative bound" 0.25 b.Compare.rel;
      Alcotest.check feq "absolute floor" 0.010 b.Compare.floor
  | _ -> Alcotest.fail "expected one bound"

(* ------------------------------------------------------------------ *)
(* Smoke                                                               *)

let test_smoke () =
  let cfg =
    {
      Workload.seed = 7;
      seconds = 1.;
      ops = None;
      smoke = true;
      work_dir = fresh "smoke-work";
    }
  in
  Alcotest.(check (list string)) "every workload answers correctly, traced leg complete" []
    (Runner.smoke cfg)

let () =
  Alcotest.run ~argv:[| Sys.argv.(0) |] "suite"
    [
      ( "stats",
        [
          Alcotest.test_case "nearest-rank quantiles" `Quick test_quantile;
          Alcotest.test_case "supported percentile" `Quick test_supported;
          Alcotest.test_case "quartiles match Python" `Quick test_quartiles;
          Alcotest.test_case "calibration kernel allocates nothing" `Quick
            test_kernel_allocates_nothing;
          Alcotest.test_case "scaling to the reference speed" `Quick test_scale;
        ] );
      ( "streams",
        [
          Alcotest.test_case "core walk: valid, never a bridge" `Quick test_core_walk;
          Alcotest.test_case "access stream: valid" `Quick test_access_stream;
          Alcotest.test_case "mixed stream: valid" `Quick test_mixed_stream;
          Alcotest.test_case "coverage budgets" `Quick test_budgets;
        ] );
      ( "compare",
        [
          Alcotest.test_case "verdicts and claim rule" `Quick test_compare_verdicts;
          Alcotest.test_case "bounds from BENCHMARK.json" `Quick test_compare_benchmark_bounds;
        ] );
      ("smoke", [ Alcotest.test_case "all workloads + trace leg" `Quick test_smoke ]);
    ]
