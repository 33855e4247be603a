(* Fixed-size Domain worker pool.

   Layout: [jobs - 1] spawned domains plus the calling domain, all
   draining one shared task queue. Each [map] call carves its input
   into chunks; a chunk task writes results into the slots of its own
   indices, so results are positionally stable and the final serial
   fold makes the whole computation independent of scheduling.

   Memory-model note: result-slot writes are plain writes to disjoint
   array cells; the completion edge to the caller goes through the
   [remaining] atomic (worker decrements after its writes, caller
   observes zero before reading), which orders them.

   Observability: every queued task carries its enqueue timestamp, so
   the slot that pops it can record queue wait; task run time goes
   into a per-slot histogram (the calling domain is slot 0, spawned
   workers are slots 1..jobs-1). Timing never feeds back into
   results — the determinism contract is untouched. *)

module Obs = Nettomo_obs.Obs

type metrics = {
  m_idle : Obs.Metrics.gauge;
  m_util : Obs.Metrics.gauge;
  m_queue_wait : Obs.Metrics.histogram;
  m_slot_busy : Obs.Metrics.histogram array; (* length jobs; index = slot *)
  m_busy_total : float Atomic.t; (* seconds of task time across slots *)
  m_running : int Atomic.t; (* submitted tasks currently executing *)
  mutable m_idle_slots : int; (* last value pushed to m_idle *)
}

type t = {
  jobs : int;
  queue : (float * (unit -> unit)) Queue.t; (* enqueue time, task *)
  lock : Mutex.t;
  work_available : Condition.t;
  mutable closed : bool;
  mutable workers : unit Domain.t list;
  metrics : metrics;
}

let max_jobs = 128

let jobs t = t.jobs

let idle_slots t = t.metrics.m_idle_slots

(* Run [task] on behalf of [slot], recording queue wait and busy time.
   The close side runs under [Fun.protect]: a raising task (captured
   upstream into the chunk's failure slot) still accounts for the time
   it burned, so busy/utilization gauges cannot under-report failed
   work. *)
let run_timed pool ~slot (enqueued_at, task) =
  let t0 = Obs.Clock.now () in
  Obs.Metrics.observe pool.metrics.m_queue_wait
    (Float.max 0. (t0 -. enqueued_at));
  Fun.protect
    ~finally:(fun () ->
      let dt = Float.max 0. (Obs.Clock.now () -. t0) in
      Obs.Metrics.observe pool.metrics.m_slot_busy.(slot) dt;
      let rec add () =
        let old = Atomic.get pool.metrics.m_busy_total in
        if
          not (Atomic.compare_and_set pool.metrics.m_busy_total old (old +. dt))
        then add ()
      in
      add ())
    task

let rec worker_loop pool ~slot =
  Mutex.lock pool.lock;
  let rec next () =
    if not (Queue.is_empty pool.queue) then Some (Queue.pop pool.queue)
    else if pool.closed then None
    else begin
      Condition.wait pool.work_available pool.lock;
      next ()
    end
  in
  match next () with
  | None -> Mutex.unlock pool.lock
  | Some entry ->
      Mutex.unlock pool.lock;
      run_timed pool ~slot entry;
      worker_loop pool ~slot

let create ~jobs =
  if jobs < 1 || jobs > max_jobs then
    Errors.invalid_argf "Pool.create: jobs must be in [1, %d], got %d" max_jobs
      jobs;
  let metrics =
    {
      m_idle = Obs.Metrics.gauge "pool_slots_idle";
      m_util = Obs.Metrics.gauge "pool_utilization_ratio";
      m_queue_wait = Obs.Metrics.histogram "pool_queue_wait_seconds";
      m_slot_busy =
        Array.init jobs (fun i ->
            Obs.Metrics.histogram
              ~labels:[ ("slot", string_of_int i) ]
              "pool_task_seconds");
      m_busy_total = Atomic.make 0.;
      m_running = Atomic.make 0;
      m_idle_slots = 0;
    }
  in
  let pool =
    { jobs; queue = Queue.create (); lock = Mutex.create ();
      work_available = Condition.create (); closed = false; workers = [];
      metrics }
  in
  pool.workers <-
    List.init (jobs - 1) (fun i ->
        Domain.spawn (fun () -> worker_loop pool ~slot:(i + 1)));
  pool

let close pool =
  Mutex.lock pool.lock;
  pool.closed <- true;
  Condition.broadcast pool.work_available;
  Mutex.unlock pool.lock;
  List.iter Domain.join pool.workers;
  pool.workers <- []

let with_pool ~jobs f =
  let pool = create ~jobs in
  Fun.protect ~finally:(fun () -> close pool) (fun () -> f pool)

let try_pop pool =
  Mutex.lock pool.lock;
  let r =
    if Queue.is_empty pool.queue then None else Some (Queue.pop pool.queue)
  in
  Mutex.unlock pool.lock;
  r

let set_idle pool idle =
  pool.metrics.m_idle_slots <- idle;
  Obs.Metrics.set_gauge pool.metrics.m_idle (float_of_int idle)

let queue_wait pool = pool.metrics.m_queue_wait
let running pool = Atomic.get pool.metrics.m_running

(* Long-lived serving (the socket front door) reuses the same worker
   slots as batch fan-out: [submit] enqueues a one-off task and returns
   immediately.  Unlike [map], the caller does not participate, so on a
   [jobs = 1] pool (no spawned workers) the task runs synchronously in
   the caller — keeping the pool-wide rule that [jobs = 1] means serial
   execution rather than deadlock.  Each submitted task maintains the
   idle-slot accounting ([jobs] minus currently-running submissions) so
   a drained server reads [idle_slots = jobs]; the counter is atomic,
   the gauge write is last-writer-wins across workers — an approximate
   instrument, never a synchronization point. *)
let submit ?ctx pool task =
  if pool.closed then Errors.invalid_arg "Pool.submit: pool is closed";
  (* Fork the request context on the submitting domain: the fork
     captures the submitter's innermost open span as the parent, so
     spans recorded by the task on a worker domain link back across
     the domain boundary. *)
  let task =
    match ctx with
    | None -> task
    | Some c ->
        let c = Obs.Ctx.fork c in
        fun () -> Obs.Ctx.with_ctx c task
  in
  let accounted () =
    let running = 1 + Atomic.fetch_and_add pool.metrics.m_running 1 in
    set_idle pool (max 0 (pool.jobs - running));
    Fun.protect
      ~finally:(fun () ->
        let running = Atomic.fetch_and_add pool.metrics.m_running (-1) - 1 in
        set_idle pool (max 0 (pool.jobs - running)))
      task
  in
  let entry = (Obs.Clock.now (), accounted) in
  if pool.jobs = 1 then run_timed pool ~slot:0 entry
  else begin
    Mutex.lock pool.lock;
    Queue.push entry pool.queue;
    Condition.signal pool.work_available;
    Mutex.unlock pool.lock
  end

let map pool f items =
  if pool.closed then Errors.invalid_arg "Pool.map: pool is closed";
  let n = Array.length items in
  if n = 0 then begin
    set_idle pool pool.jobs;
    [||]
  end
  else begin
    (* About four chunks per worker keeps the queue short while still
       smoothing over uneven per-item cost. *)
    let chunk = max 1 ((n + (4 * pool.jobs) - 1) / (4 * pool.jobs)) in
    let results = Array.make n None in
    let n_chunks = (n + chunk - 1) / chunk in
    (* Slots that can never receive work this call: fewer chunks than
       workers leaves the difference idle for the whole map. *)
    set_idle pool (pool.jobs - min pool.jobs n_chunks);
    let wall0 = Obs.Clock.now () in
    let busy0 = Atomic.get pool.metrics.m_busy_total in
    let remaining = Atomic.make n_chunks in
    let failed = Atomic.make None in
    let fin_lock = Mutex.create () in
    let fin_cond = Condition.create () in
    let finish_one () =
      if Atomic.fetch_and_add remaining (-1) = 1 then begin
        Mutex.lock fin_lock;
        Condition.broadcast fin_cond;
        Mutex.unlock fin_lock
      end
    in
    (* Batch fan-out under a request: fork the caller's ambient
       context once, at map entry, so every chunk — wherever it is
       scheduled — runs attributed to the same request with its parent
       span pointing at the span that called [map]. *)
    let amb_ctx =
      match Obs.Ctx.current () with
      | None -> None
      | Some c -> Some (Obs.Ctx.fork c)
    in
    let run_chunk c =
      (* A failed call skips the compute of its remaining chunks but
         still counts them down, so the caller's wait terminates. *)
      let compute () =
        if Option.is_none (Atomic.get failed) then
          let lo = c * chunk in
          let hi = min n (lo + chunk) - 1 in
          try
            for i = lo to hi do
              results.(i) <- Some (f items.(i))
            done
          with e ->
            let bt = Printexc.get_raw_backtrace () in
            ignore (Atomic.compare_and_set failed None (Some (e, bt)))
      in
      (match amb_ctx with
      | None -> compute ()
      | Some fc -> Obs.Ctx.with_ctx fc compute);
      finish_one ()
    in
    let enqueued_at = Obs.Clock.now () in
    Mutex.lock pool.lock;
    for c = 1 to n_chunks - 1 do
      Queue.push (enqueued_at, fun () -> run_chunk c) pool.queue
    done;
    if n_chunks > 1 then Condition.broadcast pool.work_available;
    Mutex.unlock pool.lock;
    (* The caller is a worker too: take the first chunk, then help
       drain the queue, then block until every chunk has settled. *)
    run_timed pool ~slot:0 (enqueued_at, fun () -> run_chunk 0);
    let rec help () =
      if Atomic.get remaining > 0 then begin
        match try_pop pool with
        | Some entry ->
            run_timed pool ~slot:0 entry;
            help ()
        | None ->
            Mutex.lock fin_lock;
            while Atomic.get remaining > 0 do
              Condition.wait fin_cond fin_lock
            done;
            Mutex.unlock fin_lock
      end
    in
    help ();
    let wall = Obs.Clock.now () -. wall0 in
    let busy = Atomic.get pool.metrics.m_busy_total -. busy0 in
    if wall > 0. then
      Obs.Metrics.set_gauge pool.metrics.m_util
        (Float.min 1. (busy /. (wall *. float_of_int pool.jobs)));
    match Atomic.get failed with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None ->
        Array.map
          (function
            | Some v -> v
            | None -> Errors.error "Pool.map: unfilled result slot")
          results
  end
