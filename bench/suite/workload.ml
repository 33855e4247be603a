(* What every workload shares: the run configuration, the outcome a run
   reports, set-up repetitions, and the timed operation loop. *)

module Obs = Nettomo_obs.Obs

type config = {
  seed : int;
  seconds : float;  (** measurement budget of one run *)
  ops : int option;
      (** run exactly this many operations instead (the traced pass
          replays the untraced pass's count; smoke runs fix it) *)
  smoke : bool;  (** about 1/20 of the inputs, every operation checked *)
  work_dir : string;  (** scratch output of this run *)
}

(* Timed runs check a fixed sample of operations (every 8th) against
   their oracle, outside the timed region; smoke runs check all. *)
let check_every cfg = if cfg.smoke then 1 else 8

(* Every time in an outcome is at the reference host speed (see Calib). *)
type outcome = {
  setup : float list;  (** seconds per set-up repetition *)
  latencies : float list;  (** seconds per timed operation, in order *)
  busy_s : float;  (** summed operation time *)
  ops : int;
  ops_per_s : float;
  attempted : int;
  failed : int;  (** errors, wrong answers, shed and unanswered *)
  wrong : int;  (** the part of [failed] that were wrong answers *)
  checked : int;  (** operations compared against an oracle *)
  mem_kb : int;  (** peak resident set of the process doing the work *)
  extra : (string * float) list;
      (** workload-specific end-to-end numbers (coverage_auc,
          links_solved_per_s, host_speed, ...) *)
  layers : (string * float) list;
      (** per-layer numbers only this workload can measure *)
}

let now = Obs.Clock.now

(* Peak resident set size (VmHWM) of a process, in KiB; 0 when /proc is
   unavailable. *)
let vm_hwm_kb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> 0
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          let rec scan () =
            match input_line ic with
            | exception End_of_file -> 0
            | line ->
                if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
                  Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" Fun.id
                else scan ()
          in
          scan ())

(* Run [setup] repeatedly, timing each, and keep the last result: the
   measured session starts from exactly the state the timed set-ups
   reached. At least 10 repetitions and 0.5 s of set-up (at most 60
   repetitions), so a set-up of a few milliseconds still has a steady
   median; one in a smoke run. A full collection runs untimed ahead of
   each, so every repetition starts from the heap a first set-up would
   meet and none pays for collecting what its predecessors threw away.
   Returns the set-up times at the reference speed. *)
let setup_reps (cfg : config) setup =
  let enough n spent = cfg.smoke || n >= 60 || (n >= 10 && spent >= 0.5) in
  let calib = Calib.create () in
  let rec go n times spent =
    Gc.full_major ();
    Calib.before calib n;
    let t0 = now () in
    let st = setup () in
    let dt = now () -. t0 in
    if enough (n + 1) (spent +. dt) then
      (Array.to_list (Calib.finish calib (Array.of_list (List.rev (dt :: times)))), st)
    else go (n + 1) (dt :: times) (spent +. dt)
  in
  go 0 [] 0.

(* Run [f] with tracing off. *)
let without_tracing f =
  if Obs.Trace.enabled () then begin
    Obs.Trace.disable ();
    Fun.protect ~finally:Obs.Trace.enable f
  end
  else f ()

(* Callbacks around the timed loop, all outside the timed region: the
   traced run turns tracing on at [start], folds the span ring
   [between] operations and turns tracing off at [stop], so set-up and
   checks stay out of the trace. *)
type hooks = { start : unit -> unit; between : unit -> unit; stop : unit -> unit }

let untraced = { start = ignore; between = ignore; stop = ignore }

type loop = {
  times : float list;  (** seconds per operation at the reference speed, in order *)
  busy : float;  (** their sum *)
  count : int;
  speed : float;  (** the host's speed over the loop (Calib.speed) *)
  peak_kb : int;  (** peak resident set; see [timed_loop] *)
}

(* The timed loop. [prepare i] draws operation [i]'s input (untimed),
   [op] runs it under a "suite.op" span (timed) and [post i input r]
   inspects the answer (untimed); [prepare] and [post] run with tracing
   off, so a session reset or an oracle check never reaches the
   per-layer table. Calibration checkpoints fall between [prepare] and
   [op], and after the last operation. Stops after [cfg.ops]
   operations, or at the first multiple of [unit] once [cfg.seconds]
   have elapsed, so a run always covers whole units (a coverage pass,
   one op per solve-scale map).

   The peak resident set is read once [mem_after] operations are done
   (or at the end of a shorter run): a faster program runs more
   operations in the same time, and a peak read at the end would charge
   it for the extra state they leave behind. *)
let timed_loop (cfg : config) hooks ?(unit = 1) ?mem_after ~prepare ~op ~post () =
  let start = now () in
  let more i =
    match cfg.ops with
    | Some n -> i < n
    | None -> i mod unit <> 0 || now () -. start < cfg.seconds
  in
  let mem = ref None in
  let calib = Calib.create () in
  let rec go i times =
    if not (more i) then (List.rev times, i)
    else begin
      let input = without_tracing (fun () -> prepare i) in
      Calib.before calib i;
      let t0 = now () in
      let r = Obs.Trace.span "suite.op" (fun () -> op input) in
      let dt = now () -. t0 in
      without_tracing (fun () -> post i input r);
      hooks.between ();
      if Option.equal Int.equal mem_after (Some (i + 1)) then mem := Some (vm_hwm_kb "self");
      go (i + 1) (dt :: times)
    end
  in
  hooks.start ();
  let times, count = Fun.protect ~finally:hooks.stop (fun () -> go 0 []) in
  let times = Array.to_list (Calib.finish calib (Array.of_list times)) in
  {
    times;
    busy = List.fold_left ( +. ) 0. times;
    count;
    speed = Calib.speed calib;
    peak_kb = (match !mem with Some kb -> kb | None -> vm_hwm_kb "self");
  }

let is_error = function Ok _ -> false | Error _ -> true

(* Remove a directory tree the suite created. *)
let rec rm_rf path =
  match Sys.is_directory path with
  | exception Sys_error _ -> ()
  | true ->
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path

let fresh_dir path =
  rm_rf path;
  Sys.mkdir path 0o755;
  path
