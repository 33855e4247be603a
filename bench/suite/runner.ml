(* The workload table and the three ways to run a workload: timed
   (tracing off, end-to-end metrics), traced (per-layer table), and
   smoke (small inputs, every answer checked). *)

module Obs = Nettomo_obs.Obs
module Jsonx = Nettomo_util.Jsonx
module Inv = Nettomo_util.Invariant
open Workload

type workload = {
  name : string;
  why : string;
  run : config -> hooks -> outcome;
  smoke_ops : int;  (** operations of a smoke run (whole units) *)
}

let core_churn =
  {
    name = "core-churn";
    why =
      "core link failures rewrite a block every round, so the decomposition layers \
       (split, cut-pair sweep, 3-connectivity) dominate";
    run = Inproc.core_churn;
    smoke_ops = 12;
  }

let workloads =
  [
    core_churn;
    {
      name = "access-churn";
      why =
        "leaf churn never touches the biconnected core: memos, shortcuts and the block \
         cache do the work (control for decomposition changes)";
      run = Inproc.access_churn;
      smoke_ops = 12;
    };
    {
      name = "coverage-plan";
      why =
        "MMP-prefix monitor budgets on three ISP maps: the rank fallback and \
         independent-path search dominate";
      run = Inproc.coverage_plan;
      smoke_ops = 3;
    };
    {
      name = "solve-scale";
      why =
        "fresh sessions solving 10^4-node maps: CSR flattening, walk planning, \
         measurement and substitution, with no decomposition";
      run = Inproc.solve_scale;
      smoke_ops = 3;
    };
  ]

let find name = List.find_opt (fun w -> String.equal w.name name) workloads

(* Settings under which a timing would not measure the system as users
   run it. *)
let hazards ~tracing_ok =
  let set var =
    match Sys.getenv_opt var with Some v -> not (String.equal v "") | None -> false
  in
  List.filter_map Fun.id
    [
      (if Inv.enabled () then Some "NETTOMO_CHECK is on (answers are re-derived from scratch)"
       else None);
      (if set "NETTOMO_STORE" then Some "NETTOMO_STORE is set (a leaked store)" else None);
      (if set "NETTOMO_TRACE" then Some "NETTOMO_TRACE is set" else None);
      (if set "NETTOMO_LOG" then Some "NETTOMO_LOG is set" else None);
      (if set "NETTOMO_FAKE_CLOCK" || Obs.Clock.is_fake () then Some "the fake clock is on"
       else None);
      (if (not tracing_ok) && Obs.Trace.enabled () then Some "tracing is on" else None);
    ]

(* A timed run: prints one line per end-to-end metric, then the summary
   line. Returns the outcome. *)
let run cfg w ?json () =
  let o = w.run cfg untraced in
  Report.print_lines w.name Report.end_to_end_units (Report.end_to_end o);
  Printf.printf "%s checked %d answers, %d wrong, %d failed of %d attempted\n" w.name
    o.checked o.wrong o.failed o.attempted;
  Option.iter (fun path -> Jsonx.write_file path (Report.result cfg ~workload:w.name o)) json;
  print_endline
    (Report.summary_line ~correct:(Report.correct o) ~attempted:o.attempted ~failed:o.failed
       (Report.metric_obj Report.end_to_end_units (Report.end_to_end o)));
  o

let diff_registry after before =
  List.map (fun (k, v) -> (k, v -. Layers.reg before k)) after

(* The traced leg: an untraced pass of half the budget, then a traced
   pass replaying exactly as many operations from a fresh set-up. The
   ratio of their per-operation times is the tracing overhead. Set-up
   and checks run with tracing off. *)
let traced cfg w ~out =
  let u = w.run { cfg with seconds = cfg.seconds /. 2. } untraced in
  let layers = Layers.create ~chrome:(Filename.concat out (w.name ^ ".trace.json")) () in
  let reg0 = ref [] and reg1 = ref [] in
  let hooks =
    {
      start =
        (fun () ->
          Obs.Trace.clear ();
          reg0 := Layers.parse_registry (Obs.Metrics.dump ());
          Obs.Trace.enable ());
      between = (fun () -> Layers.maybe_fold layers);
      stop =
        (fun () ->
          Obs.Trace.disable ();
          Layers.fold layers;
          reg1 := Layers.parse_registry (Obs.Metrics.dump ()));
    }
  in
  let t = Fun.protect ~finally:(fun () -> Layers.close layers) (fun () ->
      w.run { cfg with ops = Some u.ops } hooks)
  in
  let per_op o = o.busy_s /. float_of_int (max 1 o.ops) in
  let extra =
    t.layers
    @ [
        ("obs.trace_overhead_frac", (per_op t /. per_op u) -. 1.);
        ( "trace.attributed_frac",
          1. -. Layers.ratio (Layers.self layers "suite.op") (Layers.busy layers "suite.op") );
      ]
  in
  let metrics = Layers.metrics layers ~registry:(diff_registry !reg1 !reg0) ~extra in
  ( metrics,
    Layers.table layers,
    ( u.attempted + t.attempted,
      u.failed + t.failed,
      u.wrong + t.wrong,
      u.checked + t.checked ) )

(* A traced run: writes DIR/W.trace.json and DIR/W.layers.json, prints
   the per-layer metrics and the summary line. Returns whether every
   checked answer was right. *)
let trace cfg w ~out =
  let metrics, table, (attempted, failed, wrong, checked) = traced cfg w ~out in
  let units = Layers.metric_units in
  Report.print_lines w.name units metrics;
  let correct = wrong = 0 && checked > 0 in
  Jsonx.write_file
    (Filename.concat out (w.name ^ ".layers.json"))
    (Jsonx.Obj
       ([ ("workload", Jsonx.String w.name) ]
       @ Report.provenance cfg
       @ [
           ("correct", Jsonx.Bool correct);
           ("attempted", Jsonx.Int attempted);
           ("failed", Jsonx.Int failed);
           ("metrics", Report.metric_obj units metrics);
           ( "spans",
             Jsonx.List
               (List.map
                  (fun (name, calls, busy, self) ->
                    Jsonx.Obj
                      [
                        ("name", Jsonx.String name);
                        ("calls", Jsonx.Int calls);
                        ("busy_s", Jsonx.Float busy);
                        ("self_s", Jsonx.Float self);
                      ])
                  table) );
         ]));
  print_endline
    (Report.summary_line ~correct ~attempted ~failed (Report.metric_obj units metrics));
  correct

(* Every workload at smoke size with every answer checked, then the
   traced leg of core-churn. Returns the failures found (empty when the
   smoke passes). *)
let smoke cfg =
  let cfg = { cfg with smoke = true } in
  let runs =
    List.filter_map
      (fun w ->
        let o = run { cfg with ops = Some w.smoke_ops } w () in
        if Report.correct o && o.failed = 0 then None
        else Some (Printf.sprintf "%s: %d wrong, %d failed, %d checked" w.name o.wrong o.failed o.checked))
      workloads
  in
  let trace_leg =
    let out = fresh_dir (Filename.concat cfg.work_dir "trace") in
    let metrics, _, (_, failed, _, checked) =
      traced { cfg with ops = Some core_churn.smoke_ops } core_churn ~out
    in
    let m name = Option.value (List.assoc_opt name metrics) ~default:0. in
    List.filter_map Fun.id
      [
        (if failed > 0 || checked = 0 then Some "trace: answers failed or unchecked" else None);
        (if m "trace.spans_folded" <= 0. then Some "trace: no spans folded" else None);
        (if m "trace.spans_lost" > 0. then Some "trace: spans lost" else None);
        (if m "trace.attributed_frac" < 0.9 then Some "trace: spans cover < 90% of op time"
         else None);
        (if Sys.file_exists (Filename.concat out "core-churn.trace.json") then None
         else Some "trace: no Chrome trace written");
      ]
  in
  runs @ trace_leg
