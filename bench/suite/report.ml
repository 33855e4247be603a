(* End-to-end metrics of an outcome, provenance, and the result
   documents: the per-run JSON file (schema nettomo-suite/1), the
   `workload metric value unit` lines and the one-line summary that
   ends every run's standard output. *)

module Jsonx = Nettomo_util.Jsonx
open Workload

let schema = "nettomo-suite/1"

(* The end-to-end metrics, with units, in the order BENCHMARK.json
   lists them. Every workload reports every one. *)
let end_to_end_units =
  [
    ("setup_s", "s");
    ("ops_per_s", "op/s");
    ("latency_p50_ms", "ms");
    ("latency_p95_ms", "ms");
    ("mem_peak_mb", "MiB");
  ]

let end_to_end o =
  [
    ("setup_s", Stats.median o.setup);
    ("ops_per_s", o.ops_per_s);
    ("latency_p50_ms", 1000. *. Stats.quantile o.latencies 0.5);
    ("latency_p95_ms", 1000. *. Stats.quantile o.latencies 0.95);
    ("mem_peak_mb", float_of_int o.mem_kb /. 1024.);
  ]

(* The commit the checkout was made from, read from .git directly (no
   git process, nothing read outside the checkout); "unknown" outside a
   git work tree. *)
let git_commit () =
  let read path =
    match In_channel.with_open_bin path In_channel.input_all with
    | s -> Some (String.trim s)
    | exception Sys_error _ -> None
  in
  match read ".git/HEAD" with
  | None -> "unknown"
  | Some head when String.starts_with ~prefix:"ref: " head -> (
      let ref_name = String.sub head 5 (String.length head - 5) in
      match read (Filename.concat ".git" ref_name) with
      | Some sha -> sha
      | None -> (
          let packed = Option.value (read ".git/packed-refs") ~default:"" in
          let found =
            List.find_map
              (fun line ->
                match String.split_on_char ' ' line with
                | [ sha; r ] when String.equal r ref_name -> Some sha
                | _ -> None)
              (String.split_on_char '\n' packed)
          in
          match found with Some sha -> sha | None -> "unknown"))
  | Some sha -> sha

let provenance cfg =
  [
    ("schema", Jsonx.String schema);
    ("seed", Jsonx.Int cfg.seed);
    ("seconds", Jsonx.Float cfg.seconds);
    ("smoke", Jsonx.Bool cfg.smoke);
    ("nproc", Jsonx.Int (Domain.recommended_domain_count ()));
    ("ocaml", Jsonx.String Sys.ocaml_version);
    ("commit", Jsonx.String (git_commit ()));
  ]

let finite v = if Float.is_finite v then v else 0.

let metric_obj units values =
  Jsonx.Obj
    (List.map
       (fun (name, unit) ->
         let v = Option.value (List.assoc_opt name values) ~default:0. in
         (name, Jsonx.Obj [ ("value", Jsonx.Float (finite v)); ("unit", Jsonx.String unit) ]))
       units)

let floats l = Jsonx.Obj (List.map (fun (k, v) -> (k, Jsonx.Float (finite v))) l)

(* Answers are correct when none of the checked ones was wrong, and at
   least one was checked. *)
let correct o = o.wrong = 0 && o.checked > 0

let result cfg ~workload o =
  let n = List.length o.latencies in
  Jsonx.Obj
    ([ ("workload", Jsonx.String workload) ]
    @ provenance cfg
    @ [
        ("correct", Jsonx.Bool (correct o));
        ("attempted", Jsonx.Int o.attempted);
        ("failed", Jsonx.Int o.failed);
        ("wrong", Jsonx.Int o.wrong);
        ("checked", Jsonx.Int o.checked);
        ( "counts",
          Jsonx.Obj
            [
              ("ops", Jsonx.Int o.ops);
              ("setup_reps", Jsonx.Int (List.length o.setup));
              ("latency_samples", Jsonx.Int n);
              ( "supported_percentile",
                match Stats.supported_percentile n with
                | Some p -> Jsonx.Float p
                | None -> Jsonx.Null );
            ] );
        ("metrics", metric_obj end_to_end_units (end_to_end o));
        ( "extra",
          floats
            (("failed_frac", float_of_int o.failed /. float_of_int (max 1 o.attempted))
            :: o.extra) );
      ])

(* The line the benchmark's caller parses: it must be the last line of
   standard output. *)
let summary_line ~correct ~attempted ~failed metrics =
  Jsonx.to_string
    (Jsonx.Obj
       [
         ("correct", Jsonx.Bool correct);
         ("attempted", Jsonx.Int attempted);
         ("failed", Jsonx.Int failed);
         ("metrics", metrics);
       ])

let print_lines workload units values =
  List.iter
    (fun (name, unit) ->
      let v = Option.value (List.assoc_opt name values) ~default:0. in
      Printf.printf "%s %s %.6g %s\n" workload name v unit)
    units
