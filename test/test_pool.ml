(* Property tests for the Domain worker pool.

   The contract under test: map equals its serial equivalent for every
   jobs count and input size, hence every chunk size the pool picks
   (positional results), worker exceptions propagate to the caller, a
   one-job pool degenerates to serial caller-side execution, and the
   NETTOMO_CHECK invariant layer stays usable inside worker tasks. *)

open Nettomo_util

let check = Alcotest.check
let ci = Alcotest.int
let cia = Alcotest.array Alcotest.int

let jobs_grid = [ 1; 2; 3; 4 ]

(* The pool cuts [n] items into about four chunks per job: one item per
   chunk up to [4·jobs] items, larger chunks past that, so input sizes
   up to 60 reach chunks of 1 to 15 items. *)

let test_map_equals_serial () =
  let rng = Prng.create 101 in
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs (fun pool ->
          for _ = 1 to 30 do
            let n = Prng.int rng 60 in
            let items = Array.init n (fun _ -> Prng.int_in rng (-50) 50) in
            let expected = Array.map (fun x -> (x * x) - (3 * x)) items in
            let got = Pool.map pool (fun x -> (x * x) - (3 * x)) items in
            check cia (Printf.sprintf "jobs=%d n=%d" jobs n) expected got
          done))
    jobs_grid

let test_empty_input () =
  Pool.with_pool ~jobs:3 (fun pool ->
      check cia "map []" [||] (Pool.map pool (fun x -> x * 2) [||]))

exception Boom of int

let test_exception_propagates () =
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs (fun pool ->
          List.iter
            (fun n ->
              let raised =
                try
                  ignore
                    (Pool.map pool
                       (fun i -> if i = 13 then raise (Boom i) else i)
                       (Array.init n Fun.id));
                  None
                with Boom i -> Some i
              in
              check (Alcotest.option ci) "Boom reaches the caller" (Some 13)
                raised)
            [ 14; 16; 40; 1000 ]))
    jobs_grid

let test_pool_still_usable_after_failure () =
  Pool.with_pool ~jobs:3 (fun pool ->
      (try ignore (Pool.map pool (fun _ -> raise (Boom 0)) [| 1; 2; 3 |])
       with Boom _ -> ());
      check cia "next call is clean" [| 2; 4; 6 |]
        (Pool.map pool (fun x -> 2 * x) [| 1; 2; 3 |]))

let test_single_job_degenerates_to_serial () =
  (* With jobs = 1 there are no worker domains: every item runs in the
     caller's domain, in input order. *)
  Pool.with_pool ~jobs:1 (fun pool ->
      let self = Domain.self () in
      let order = ref [] in
      let got =
        Pool.map pool
          (fun i ->
            check Alcotest.bool "runs in the caller's domain" true
              (Domain.self () = self);
            order := i :: !order;
            i)
          (Array.init 17 Fun.id)
      in
      check cia "results" (Array.init 17 Fun.id) got;
      check (Alcotest.list ci) "executed in input order"
        (List.init 17 Fun.id) (List.rev !order))

let test_invalid_arguments () =
  Alcotest.check_raises "jobs = 0"
    (Invalid_argument "Pool.create: jobs must be in [1, 128], got 0") (fun () ->
      ignore (Pool.create ~jobs:0))

let test_closed_pool_rejected () =
  let pool = Pool.create ~jobs:2 in
  Pool.close pool;
  Pool.close pool;
  (* idempotent *)
  Alcotest.check_raises "map on closed pool"
    (Invalid_argument "Pool.map: pool is closed") (fun () ->
      ignore (Pool.map pool Fun.id [| 1 |]))

let test_invariant_layer_inside_workers () =
  (* The NETTOMO_CHECK switch is shared across domains: verifiers run
     inside worker tasks, and a Violation raised there propagates. *)
  Invariant.with_enabled true (fun () ->
      Pool.with_pool ~jobs:4 (fun pool ->
          let ran = Atomic.make 0 in
          (* 16 items on 4 jobs: one item per chunk. *)
          ignore
            (Pool.map pool
               (fun i ->
                 Invariant.check (fun () -> Atomic.incr ran);
                 i)
               (Array.init 16 Fun.id));
          check ci "verifiers ran in workers" 16 (Atomic.get ran);
          Alcotest.check_raises "Violation propagates"
            (Invariant.Violation "from a worker") (fun () ->
              ignore
                (Pool.map pool
                   (fun i ->
                     if i = 7 then
                       Invariant.check (fun () ->
                           Invariant.violation "from a worker");
                     i)
                   (Array.init 16 Fun.id)))))

let test_idle_slots_reported () =
  Pool.with_pool ~jobs:4 (fun pool ->
      check ci "no map yet: idle unknown (0)" 0 (Pool.idle_slots pool);
      (* 2 items with the default chunk size make 2 chunks, occupying
         2 of the 4 slots: the other 2 must be reported idle. *)
      let got = Pool.map pool (fun x -> x * 10) [| 1; 2 |] in
      check cia "map result still correct" [| 10; 20 |] got;
      check ci "2 items on 4 domains leave 2 slots idle" 2
        (Pool.idle_slots pool);
      (* Enough chunks saturate the pool: 16 items make 16 chunks. *)
      ignore (Pool.map pool Fun.id (Array.init 16 Fun.id));
      check ci "saturated pool has no idle slots" 0 (Pool.idle_slots pool);
      (* An empty map uses no slots at all. *)
      ignore (Pool.map pool Fun.id [||]);
      check ci "empty map leaves every slot idle" 4 (Pool.idle_slots pool))

(* ---------- submit: the long-lived serving entry point ---------- *)

let spin_until ?(max_spins = 500_000_000) ~what cond =
  let rec go spins =
    if not (cond ()) then
      if spins > max_spins then Alcotest.failf "timed out waiting for %s" what
      else begin
        Domain.cpu_relax ();
        go (spins + 1)
      end
  in
  go 0

let test_submit_runs_tasks () =
  (* jobs = 1 spawns no workers: submit must run the task synchronously
     in the caller (the serial contract), not deadlock on an empty
     worker set. *)
  Pool.with_pool ~jobs:1 (fun pool ->
      let hit = ref false in
      Pool.submit pool (fun () -> hit := true);
      check Alcotest.bool "jobs=1 submit is synchronous" true !hit);
  (* jobs = 4: every submitted task runs exactly once on some worker. *)
  Pool.with_pool ~jobs:4 (fun pool ->
      let n = 200 in
      let sum = Atomic.make 0 in
      let finished = Atomic.make 0 in
      for i = 1 to n do
        Pool.submit pool (fun () ->
            ignore (Atomic.fetch_and_add sum i);
            ignore (Atomic.fetch_and_add finished 1))
      done;
      spin_until ~what:"submitted tasks" (fun () -> Atomic.get finished = n);
      check ci "each task ran exactly once" (n * (n + 1) / 2) (Atomic.get sum));
  (* A closed pool rejects submissions like it rejects map. *)
  let pool = Pool.create ~jobs:1 in
  Pool.close pool;
  match Pool.submit pool (fun () -> ()) with
  | () -> Alcotest.fail "submit on a closed pool must raise"
  | exception Invalid_argument _ -> ()

let test_submit_idle_accounting () =
  Pool.with_pool ~jobs:3 (fun pool ->
      let release = Atomic.make false in
      let started = Atomic.make false in
      let finished = Atomic.make false in
      Pool.submit pool (fun () ->
          Atomic.set started true;
          spin_until ~what:"release flag" (fun () -> Atomic.get release);
          Atomic.set finished true);
      spin_until ~what:"task start" (fun () -> Atomic.get started);
      check ci "one running task leaves jobs - 1 idle" 2
        (Pool.idle_slots pool);
      Atomic.set release true;
      spin_until ~what:"task finish" (fun () -> Atomic.get finished);
      (* The gauge write happens in the task's finally, strictly after
         the finished flag — give it the same spin treatment. *)
      spin_until ~what:"idle gauge to settle" (fun () ->
          Pool.idle_slots pool = 3);
      check ci "drained pool reads idle = jobs" 3 (Pool.idle_slots pool))

let test_submit_records_queue_wait () =
  Pool.with_pool ~jobs:1 (fun pool ->
      let h = Pool.queue_wait pool in
      let before = Nettomo_obs.Obs.Metrics.histogram_count h in
      Pool.submit pool (fun () -> ());
      Pool.submit pool (fun () -> ());
      check ci "one queue-wait observation per submit" (before + 2)
        (Nettomo_obs.Obs.Metrics.histogram_count h))

let suite =
  [
    Alcotest.test_case "map = serial map (all jobs x chunks)" `Quick
      test_map_equals_serial;
    Alcotest.test_case "empty input" `Quick test_empty_input;
    Alcotest.test_case "worker exception propagates" `Quick
      test_exception_propagates;
    Alcotest.test_case "pool usable after a failed call" `Quick
      test_pool_still_usable_after_failure;
    Alcotest.test_case "one job degenerates to serial" `Quick
      test_single_job_degenerates_to_serial;
    Alcotest.test_case "invalid arguments rejected" `Quick
      test_invalid_arguments;
    Alcotest.test_case "closed pool rejected, close idempotent" `Quick
      test_closed_pool_rejected;
    Alcotest.test_case "invariant layer usable in workers" `Quick
      test_invariant_layer_inside_workers;
    Alcotest.test_case "idle slots reported per map" `Quick
      test_idle_slots_reported;
    Alcotest.test_case "submit runs every task once" `Quick
      test_submit_runs_tasks;
    Alcotest.test_case "submit maintains idle-slot accounting" `Quick
      test_submit_idle_accounting;
    Alcotest.test_case "submit records queue wait" `Quick
      test_submit_records_queue_wait;
  ]
