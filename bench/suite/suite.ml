(* nettomo-suite: the repository's benchmark.

     suite.exe run --workload W [--seed S] [--seconds T] [--json FILE]
     suite.exe run --all --out DIR [--seed S] [--seconds T]
     suite.exe trace --workload W --out DIR [--seed S] [--seconds T]
     suite.exe compare PARENT_DIR CHANGE_DIR [--claim METRIC@WORKLOAD]
                       [--benchmark FILE] [--json FILE]
     suite.exe smoke
     suite.exe list

   and the benchmark-runner interface of BENCHMARK.json (no
   subcommand):

     suite.exe --workload W --seed S --seconds T --trace 0|1

   Every run prints `workload metric value unit` lines and ends its
   standard output with one JSON summary line. --work-dir DIR sets the
   scratch directory (default .bench_out/work-PID). The seed defaults
   to 7; 11 is the held-out seed for claims. *)

module Jsonx = Nettomo_util.Jsonx
open Nettomo_suite

let usage () =
  print_endline
    "usage: suite.exe (run|trace|compare|smoke|list) ...  or  suite.exe --workload W --seed S \
     --seconds T --trace 0|1";
  exit 2

let die fmt = Printf.ksprintf (fun m -> print_endline ("suite.exe: " ^ m); exit 2) fmt

let opt args flag =
  let rec find = function
    | f :: v :: _ when String.equal f flag -> Some v
    | _ :: rest -> find rest
    | [] -> None
  in
  find args

let has args flag = List.exists (String.equal flag) args

let int_opt args flag default =
  match opt args flag with
  | None -> default
  | Some v -> ( match int_of_string_opt v with Some n -> n | None -> die "%s: not an integer: %s" flag v)

let float_opt args flag default =
  match opt args flag with
  | None -> default
  | Some v -> ( match float_of_string_opt v with Some x -> x | None -> die "%s: not a number: %s" flag v)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let config args =
  let work_dir =
    match opt args "--work-dir" with
    | Some d -> d
    | None -> Printf.sprintf ".bench_out/work-%d" (Unix.getpid ())
  in
  mkdir_p work_dir;
  {
    Workload.seed = int_opt args "--seed" 7;
    seconds = float_opt args "--seconds" 20.;
    ops = None;
    smoke = false;
    work_dir;
  }

(* The work directory holds this run's scratch output only and is
   removed when the run ends. *)
let with_config args f =
  let cfg = config args in
  Fun.protect ~finally:(fun () -> Workload.rm_rf cfg.Workload.work_dir) (fun () -> f cfg)

let workload args =
  match opt args "--workload" with
  | None -> die "--workload is required"
  | Some name -> (
      match Runner.find name with
      | Some w -> w
      | None ->
          die "unknown workload %s (one of: %s)" name
            (String.concat ", " (List.map (fun w -> w.Runner.name) Runner.workloads)))

let refuse_hazards ~tracing_ok =
  match Runner.hazards ~tracing_ok with
  | [] -> ()
  | hs -> die "refusing to report timings: %s" (String.concat "; " hs)

let exit_of_correct ok = exit (if ok then 0 else 1)

(* One child process per workload, one after another. *)
let run_all args =
  let out = match opt args "--out" with Some d -> d | None -> die "--all needs --out DIR" in
  mkdir_p out;
  let pass flag = match opt args flag with Some v -> [ flag; v ] | None -> [] in
  let codes =
    List.map
      (fun (w : Runner.workload) ->
        let argv =
          [ Sys.executable_name; "run"; "--workload"; w.Runner.name; "--json"; Filename.concat out (w.Runner.name ^ ".json") ]
          @ pass "--seed" @ pass "--seconds"
        in
        let pid = Unix.create_process Sys.executable_name (Array.of_list argv) Unix.stdin Unix.stdout Unix.stderr in
        match snd (Unix.waitpid [] pid) with
        | Unix.WEXITED c -> c
        | Unix.WSIGNALED _ | Unix.WSTOPPED _ -> 1)
      Runner.workloads
  in
  exit (List.fold_left max 0 codes)

let run args =
  if has args "--all" then run_all args
  else begin
    refuse_hazards ~tracing_ok:false;
    let w = workload args in
    let ok =
      with_config args (fun cfg ->
          let o = Runner.run cfg w ?json:(opt args "--json") () in
          Report.correct o)
    in
    exit_of_correct ok
  end

let trace args =
  refuse_hazards ~tracing_ok:true;
  let w = workload args in
  let out = match opt args "--out" with Some d -> d | None -> die "trace needs --out DIR" in
  mkdir_p out;
  let ok = with_config args (fun cfg -> Runner.trace cfg w ~out) in
  exit_of_correct ok

let compare = function
  | parent :: change :: rest ->
      let bench = Option.value (opt rest "--benchmark") ~default:"BENCHMARK.json" in
      let bounds = Compare.bounds_of_benchmark bench @ Compare.extra_bounds in
      let p = Compare.load parent and c = Compare.load change in
      if p = [] || c = [] then die "no nettomo-suite result files under %s or %s" parent change;
      let rows = Compare.rows ~bounds p c in
      Compare.print_rows rows;
      Option.iter (fun path -> Jsonx.write_file path (Compare.to_json rows)) (opt rest "--json");
      let bad =
        List.exists
          (fun r ->
            match r.Compare.verdict with
            | Compare.Regressed | Compare.Unresolved -> true
            | Compare.Ok_ | Compare.Better -> false)
          rows
      in
      let claim_ok =
        match opt rest "--claim" with
        | None -> true
        | Some spec -> (
            match String.split_on_char '@' spec with
            | [ metric; workload ] -> (
                match Compare.claim ~bounds p c ~metric ~workload with
                | Ok (wins, n, met) ->
                    Printf.printf "claim %s: change better in %d of %d pairs: %s\n" spec wins n
                      (if met then "met" else "not met");
                    met
                | Error m -> die "claim %s: %s" spec m)
            | _ -> die "--claim takes METRIC@WORKLOAD")
      in
      exit (if bad || not claim_ok then 1 else 0)
  | _ -> usage ()

let smoke args =
  let failures = with_config args (fun cfg -> Runner.smoke cfg) in
  List.iter (fun f -> print_endline ("smoke: " ^ f)) failures;
  exit (if failures = [] then 0 else 1)

(* The benchmark-runner interface: --trace 0 is a timed run, --trace 1
   the traced leg (its files go to .bench_out/trace). *)
let benchmark_interface args =
  let args = if has args "--trace" then args else args @ [ "--trace"; "0" ] in
  match opt args "--trace" with
  | Some "0" -> run args
  | Some "1" -> trace (args @ [ "--out"; ".bench_out/trace" ])
  | Some v -> die "--trace takes 0 or 1, not %s" v
  | None -> usage ()

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "run" :: args -> run args
  | "trace" :: args -> trace args
  | "compare" :: args -> compare args
  | "smoke" :: args -> smoke args
  | [ "list" ] ->
      List.iter (fun w -> Printf.printf "%-14s %s\n" w.Runner.name w.Runner.why) Runner.workloads
  | (flag :: _) as args when String.starts_with ~prefix:"--" flag -> benchmark_interface args
  | _ -> usage ()
