(* Timings at a reference host speed.

   The suite runs on virtual machines that share their host, and the
   host's speed drifts. On a 2-vCPU one, about 30 runs of one seed of
   each of three workloads spread their op times by 17 to 31%
   (interquartile range over the median), and the median set-up time of
   core-churn over ten runs moved by 39% between two sets of runs of the
   same code. Raw wall times cannot tell such a drift from a change in
   the program.

   So every time the suite reports is scaled to a reference speed. A
   fixed kernel is timed at checkpoints between the timed pieces of
   work (before the first, then whenever [interval] has passed, and
   after the last); a piece timed at [t] between checkpoints whose
   kernels took [k0] and [k1] is reported as
   [t *. (reference_s /. ((k0 +. k1) /. 2.)) ** exponent].

   The kernel calls nothing in lib/ and allocates nothing (it works on a
   Bigarray), so it never runs, or pays for, the program's garbage
   collection. It writes and then reads a 4 MiB buffer, twice the L2
   cache, so it runs at the speed of the shared last-level cache: the
   drift is in the memory system (over those runs a pure arithmetic
   loop's time spread by 5%, this kernel's by about 50%). Each
   checkpoint runs it twice and times the second run, which finds the
   buffer in cache whatever the program's work evicted: its time
   depends on the host, not on the program's memory footprint, so no
   change to the program can move it.

   The workloads are less memory-bound than the kernel. Over two sets
   of ten 20 s runs of each workload, each metric's log fell with the
   log of the host's speed (reference over kernel time) with slopes of
   0.57 to 0.92, median 0.74 (correlation 0.8 to 1.0); scaling by the
   full ratio overcorrected and spread some metrics by 20%. Both sides
   of a comparison run on the same host under the same scaling, so the
   exponent trades noise, not bias. *)

open Bigarray

let size = 1 lsl 19

(* Seconds between checkpoints: the host's speed changes over seconds,
   and a checkpoint costs about two kernel runs. *)
let interval = 0.1

(* How much of the kernel's slow-down the workloads share (see above). *)
let exponent = 0.75

(* The kernel's time on the reference host: the median of 3000
   back-to-back measurements (1.49 ms) on the 2-vCPU Xeon virtual
   machine the suite was built on, rounded. A constant: changing it
   would rescale every timing the suite has ever reported. *)
let reference_s = 0.0015

let buffer = Array1.create int c_layout size

(* Where the kernel leaves its result, so no loop is dead code. *)
let sink = ref 0

let kernel () =
  for i = 0 to size - 1 do
    buffer.{i} <- i lxor !sink
  done;
  let acc = ref 0 in
  for i = 0 to size - 1 do
    acc := !acc + buffer.{i}
  done;
  sink := !acc land 0xffff

(* Seconds one kernel run takes now, on a warm buffer. *)
let measure () =
  kernel ();
  let t0 = Nettomo_obs.Obs.Clock.now () in
  kernel ();
  Nettomo_obs.Obs.Clock.now () -. t0

(* The checkpoints of one run of timed pieces. *)
type t = {
  mutable last : float;  (** when the latest checkpoint ended *)
  mutable marks : (int * float) list;
      (** (index of the piece the checkpoint precedes, kernel seconds),
          newest first *)
}

let create () = { last = Float.neg_infinity; marks = [] }

(* Call right before timed piece [i] (0, 1, 2, ...). *)
let before t i =
  if Nettomo_obs.Obs.Clock.now () -. t.last >= interval then begin
    t.marks <- (i, measure ()) :: t.marks;
    t.last <- Nettomo_obs.Obs.Clock.now ()
  end

(* Piece [i] of [times] at the reference speed. [marks] holds the
   checkpoints in order, as (index of the piece each precedes, kernel
   seconds): the first precedes piece 0, the last follows every piece,
   and a piece is scaled by the checkpoints on either side of it. *)
let scale marks times =
  let m = ref 0 in
  Array.mapi
    (fun i dt ->
      while fst marks.(!m + 1) <= i do
        incr m
      done;
      dt *. ((reference_s /. ((snd marks.(!m) +. snd marks.(!m + 1)) /. 2.)) ** exponent))
    times

(* Call after the last piece, with every piece's measured seconds in
   order: takes the closing checkpoint and returns the pieces' times at
   the reference speed. *)
let finish t times =
  t.marks <- (Array.length times, measure ()) :: t.marks;
  scale (Array.of_list (List.rev t.marks)) times

(* The host's speed over a finished run: the reference time over the
   median kernel time (1 = the reference host, 0.7 = 30% slower). *)
let speed t =
  let a = Array.of_list (List.map snd t.marks) in
  Array.sort Float.compare a;
  reference_s /. a.(Array.length a / 2)
