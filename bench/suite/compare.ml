(* suite.exe compare: medians and quartiles of two sets of result files,
   one row per workload x metric, judged against the benchmark's bounds.

   A metric regresses when the change's median is worse than the
   parent's by more than its bound (relative, with an absolute floor
   for the small timings). Where either side's own run-to-run spread
   (q3 - q1) is wider than the bound, the row is "unresolved" rather
   than "ok", unless every change run beats every parent run. A claim
   metric@workload holds when the change wins at least 9 of 10 pairs
   (runs paired in seed order, ties counting for neither) and the
   medians differ by more than the parent's spread. *)

module Jsonx = Nettomo_util.Jsonx

type bound = { better_lower : bool; rel : float; floor : float }

(* Bounds of the workload-specific metrics in a result file's extras,
   which BENCHMARK.json does not carry. Throughputs get the bound of
   ops_per_s; deterministic outcomes allow no worsening at all. *)
let extra_bounds =
  [
    ("failed_frac", { better_lower = true; rel = 0.; floor = 0. });
    ("coverage_auc", { better_lower = false; rel = 0.; floor = 0. });
    ("identified_links_per_s", { better_lower = false; rel = 0.25; floor = 0. });
    ("links_solved_per_s", { better_lower = false; rel = 0.25; floor = 0. });
  ]

(* Absolute floors under the relative bounds: below them a timing's
   change is within clock and scheduler noise. *)
let floors = [ ("setup_s", 0.010); ("latency_p50_ms", 0.2); ("latency_p95_ms", 0.5) ]

let bounds_of_benchmark path =
  let j =
    match Jsonx.parse (In_channel.with_open_bin path In_channel.input_all) with
    | Ok j -> j
    | Error m -> failwith (path ^ ": " ^ m)
  in
  match Jsonx.member "end_to_end" j with
  | Some (Jsonx.List entries) ->
      List.filter_map
        (fun e ->
          let str k = Option.bind (Jsonx.member k e) Jsonx.to_string_opt in
          let num k =
            match Jsonx.member k e with
            | Some (Jsonx.Float f) -> Some f
            | Some (Jsonx.Int i) -> Some (float_of_int i)
            | Some _ | None -> None
          in
          match (str "name", str "better", num "bound") with
          | Some name, Some better, Some rel ->
              Some
                ( name,
                  {
                    better_lower = String.equal better "lower";
                    rel;
                    floor = Option.value (List.assoc_opt name floors) ~default:0.;
                  } )
          | _ -> None)
        entries
  | Some _ | None -> failwith (path ^ ": no end_to_end list")

(* One result file: (workload, seed, metric values). *)
type run = { workload : string; seed : int; file : string; values : (string * float) list }

let num = function
  | Jsonx.Float f -> Some f
  | Jsonx.Int i -> Some (float_of_int i)
  | Jsonx.Null | Jsonx.Bool _ | Jsonx.String _ | Jsonx.List _ | Jsonx.Obj _ -> None

let run_of_file file =
  match Jsonx.parse (In_channel.with_open_bin file In_channel.input_all) with
  | Error _ -> None
  | Ok j -> (
      let str k = Option.bind (Jsonx.member k j) Jsonx.to_string_opt in
      match (str "schema", str "workload") with
      | Some s, Some workload when String.equal s Report.schema ->
          let metrics =
            match Jsonx.member "metrics" j with
            | Some (Jsonx.Obj fields) ->
                List.filter_map
                  (fun (k, v) -> Option.map (fun x -> (k, x)) (Option.bind (Jsonx.member "value" v) num))
                  fields
            | Some _ | None -> []
          in
          let extra =
            match Jsonx.member "extra" j with
            | Some (Jsonx.Obj fields) -> List.filter_map (fun (k, v) -> Option.map (fun x -> (k, x)) (num v)) fields
            | Some _ | None -> []
          in
          let seed = Option.value (Option.bind (Jsonx.member "seed" j) Jsonx.to_int_opt) ~default:0 in
          Some { workload; seed; file; values = metrics @ extra }
      | _ -> None)

(* Every result file under a directory, recursively, in seed then file
   order (the pairing order of the claim rule). *)
let load dir =
  let rec walk path acc =
    if Sys.is_directory path then
      Array.fold_left (fun acc n -> walk (Filename.concat path n) acc) acc
        (let names = Sys.readdir path in
         Array.sort String.compare names;
         names)
    else if Filename.check_suffix path ".json" then
      match run_of_file path with Some r -> r :: acc | None -> acc
    else acc
  in
  walk dir []
  |> List.sort (fun a b ->
         match Int.compare a.seed b.seed with 0 -> String.compare a.file b.file | c -> c)

type side = { q1 : float; median : float; q3 : float; values : float list }

let side values =
  match values with
  | [] -> None
  | [ v ] -> Some { q1 = v; median = v; q3 = v; values }
  | _ ->
      let q1, median, q3 = Stats.quartiles values in
      Some { q1; median; q3; values }

type verdict = Ok_ | Better | Regressed | Unresolved

let verdict_name = function
  | Ok_ -> "ok"
  | Better -> "better"
  | Regressed -> "REGRESSED"
  | Unresolved -> "unresolved"

type row = {
  r_workload : string;
  metric : string;
  parent : side;
  change : side;
  bound : bound;
  verdict : verdict;
}

(* Positive when [c] is worse than [p]. *)
let worse b p c = if b.better_lower then c -. p else p -. c

let judge b parent change =
  let allowed = Float.max (b.rel *. Float.abs parent.median) b.floor in
  let spread = Float.max (parent.q3 -. parent.q1) (change.q3 -. change.q1) in
  let all_better =
    List.for_all (fun c -> List.for_all (fun p -> worse b p c < 0.) parent.values) change.values
  in
  if spread > allowed then if all_better then Better else Unresolved
  else if worse b parent.median change.median > allowed then Regressed
  else if -.worse b parent.median change.median > parent.q3 -. parent.q1 && all_better then Better
  else Ok_

let rows ~bounds parent_runs change_runs =
  let workloads =
    List.sort_uniq String.compare (List.map (fun (r : run) -> r.workload) parent_runs)
  in
  List.concat_map
    (fun w ->
      let of_w runs = List.filter (fun (r : run) -> String.equal r.workload w) runs in
      let p = of_w parent_runs and c = of_w change_runs in
      List.filter_map
        (fun (metric, b) ->
          let values runs = List.filter_map (fun (r : run) -> List.assoc_opt metric r.values) runs in
          match (side (values p), side (values c)) with
          | Some parent, Some change ->
              Some { r_workload = w; metric; parent; change; bound = b; verdict = judge b parent change }
          | _ -> None)
        bounds)
    workloads

let pp_side s = Printf.sprintf "%.4g [%.4g %.4g]" s.median s.q1 s.q3

let print_rows rows =
  Printf.printf "%-14s %-16s %-30s %-30s %8s %7s %s\n" "workload" "metric" "parent median [q1 q3]"
    "change median [q1 q3]" "delta" "bound" "verdict";
  List.iter
    (fun r ->
      let delta =
        if Float.equal r.parent.median 0. then 0.
        else 100. *. (r.change.median -. r.parent.median) /. Float.abs r.parent.median
      in
      Printf.printf "%-14s %-16s %-30s %-30s %+7.2f%% %6.1f%% %s\n" r.r_workload r.metric
        (pp_side r.parent) (pp_side r.change) delta (100. *. r.bound.rel) (verdict_name r.verdict))
    rows

(* The pairs-won rule for a claimed gain of [metric] on [workload]. *)
let claim ~bounds parent_runs change_runs ~metric ~workload =
  match List.assoc_opt metric bounds with
  | None -> Error (Printf.sprintf "unknown metric %s" metric)
  | Some b -> (
      let values runs =
        List.filter_map
          (fun (r : run) ->
            if String.equal r.workload workload then List.assoc_opt metric r.values else None)
          runs
      in
      let p = values parent_runs and c = values change_runs in
      let rec zip a b = match (a, b) with x :: a, y :: b -> (x, y) :: zip a b | _ -> [] in
      let pairs = zip p c in
      let wins = List.length (List.filter (fun (x, y) -> worse b x y < 0.) pairs) in
      match (side p, side c) with
      | Some ps, Some cs ->
          let n = List.length pairs in
          let met =
            n > 0
            && 10 * wins >= 9 * n
            && -.worse b ps.median cs.median > ps.q3 -. ps.q1
          in
          Ok (wins, n, met)
      | _ -> Error (Printf.sprintf "no %s runs of %s" metric workload))

let to_json rows =
  let side x =
    Jsonx.Obj
      [
        ("median", Jsonx.Float x.median);
        ("q1", Jsonx.Float x.q1);
        ("q3", Jsonx.Float x.q3);
        ("runs", Jsonx.Int (List.length x.values));
      ]
  in
  Jsonx.Obj
    [
      ("schema", Jsonx.String Report.schema);
      ( "rows",
        Jsonx.List
          (List.map
             (fun r ->
               Jsonx.Obj
                 [
                   ("workload", Jsonx.String r.r_workload);
                   ("metric", Jsonx.String r.metric);
                   ("parent", side r.parent);
                   ("change", side r.change);
                   ("verdict", Jsonx.String (verdict_name r.verdict));
                 ])
             rows) );
    ]
