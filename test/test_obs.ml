(* Tests for the observability layer: histogram bucket-edge semantics
   (inclusive upper bounds, the documented Prometheus [le]
   convention), LIFO span nesting per domain, byte-identical trace
   JSON under the fake clock, and exact counter sums under 4-domain
   contention.

   Clock mode and the trace enable flag are process-global, so every
   test that touches them restores the defaults (real clock, tracing
   off) via Fun.protect — a failing assertion must not leak a fake
   clock into later suites. *)

module Obs = Nettomo_obs.Obs
open Nettomo_util

let check = Alcotest.check
let ci = Alcotest.int
let cf = Alcotest.float 1e-9
let cs = Alcotest.string

let contains haystack needle =
  let lh = String.length haystack and ln = String.length needle in
  let rec scan i =
    i + ln <= lh && (String.sub haystack i ln = needle || scan (i + 1))
  in
  ln = 0 || scan 0

(* Run [f] with the fake clock and tracing enabled, then restore the
   real clock, disable tracing and clear all recorded spans whatever
   happens. *)
let with_fake_tracing f =
  Fun.protect
    ~finally:(fun () ->
      Obs.Clock.use_real ();
      Obs.Trace.disable ();
      Obs.Trace.clear ())
    (fun () ->
      Obs.Clock.use_fake ();
      Obs.Trace.clear ();
      Obs.Trace.enable ();
      f ())

(* Cumulative bucket counts for [h] as rendered by [dump] would be
   awkward to scrape; instead re-derive per-bucket placement from
   count/sum plus targeted single observations below. *)

let test_histogram_bucket_edges () =
  (* Bounds are inclusive: an observation exactly equal to a bound
     lands in that bound's bucket, strictly above it spills into the
     next one, and above the last bound (10) into +Inf. We probe each
     edge with its own fresh histogram so count/sum isolate one
     value. *)
  let probe v =
    let h =
      Obs.Metrics.histogram
        ~labels:[ ("edge", string_of_float v) ]
        "test_obs_bucket_edges_seconds"
    in
    Obs.Metrics.observe h v;
    h
  in
  let h_low = probe 1.0 in
  let h_mid = probe 1.000001 in
  let h_edge = probe 2.0 in
  let h_inf = probe 11.0 in
  check ci "each probe recorded once" 4
    (List.fold_left
       (fun acc h -> acc + Obs.Metrics.histogram_count h)
       0
       [ h_low; h_mid; h_edge; h_inf ]);
  check cf "sum reflects the observed values" (1.0 +. 1.000001 +. 2.0 +. 11.0)
    (List.fold_left
       (fun acc h -> acc +. Obs.Metrics.histogram_sum h)
       0.
       [ h_low; h_mid; h_edge; h_inf ]);
  (* The dump exposes the cumulative buckets; the le="1" line of the
     1.0 probe must already include it (inclusive bound), while the
     1.000001 probe's le="1" line must still be zero. *)
  let dump = Obs.Metrics.dump () in
  let has line = contains dump line in
  check Alcotest.bool "v=1.0 counted at le=1 (inclusive)" true
    (has {|test_obs_bucket_edges_seconds_bucket{edge="1.",le="1"} 1|});
  check Alcotest.bool "v=1.000001 not counted at le=1" true
    (has {|test_obs_bucket_edges_seconds_bucket{edge="1.000001",le="1"} 0|});
  check Alcotest.bool "v=2.0 counted at le=2 (inclusive)" true
    (has {|test_obs_bucket_edges_seconds_bucket{edge="2.",le="2"} 1|});
  check Alcotest.bool "v=11.0 only in +Inf" true
    (has {|test_obs_bucket_edges_seconds_bucket{edge="11.",le="10"} 0|})

let test_nested_spans_close_lifo () =
  with_fake_tracing (fun () ->
      Obs.Trace.span "outer" (fun () ->
          Obs.Trace.span "inner" (fun () -> ());
          Obs.Trace.span "inner2" (fun () -> ()));
      let names = List.map (fun (n, _, _, _) -> n) (Obs.Trace.events ()) in
      (* Close order is LIFO: both inners are recorded before the
         outer that encloses them. *)
      check (Alcotest.list cs) "close order" [ "inner"; "inner2"; "outer" ]
        names;
      (* And the outer's interval must contain both inners'. *)
      match Obs.Trace.events () with
      | [ (_, s1, d1, _); (_, s2, d2, _); (_, so, dd, _) ] ->
          check Alcotest.bool "outer starts before inner" true (so <= s1);
          check Alcotest.bool "outer ends after inner2" true
            (s2 +. d2 <= so +. dd +. 1e-12);
          check Alcotest.bool "inners do not overlap" true (s1 +. d1 <= s2)
      | evs -> Alcotest.failf "expected 3 spans, got %d" (List.length evs))

let test_span_closes_on_exception () =
  with_fake_tracing (fun () ->
      (match
         Obs.Trace.span "raises" (fun () -> raise (Invalid_argument "boom"))
       with
      | () -> Alcotest.fail "span swallowed the exception"
      | exception Invalid_argument _ -> ());
      match Obs.Trace.events () with
      | [ ("raises", _, dur, _) ] ->
          check Alcotest.bool "duration non-negative" true (dur >= 0.)
      | evs -> Alcotest.failf "expected 1 span, got %d" (List.length evs))

let test_fake_clock_deterministic_trace () =
  let run () =
    with_fake_tracing (fun () ->
        Obs.Trace.span "a" (fun () ->
            Obs.Trace.span ~attrs:[ ("k", "v") ] "b" (fun () -> ()));
        Obs.Trace.span "c" (fun () -> ());
        Obs.Trace.to_chrome_json ())
  in
  let first = run () in
  let second = run () in
  check cs "two identical runs serialize identically" first second;
  check Alcotest.bool "trace JSON parses" true
    (match Jsonx.parse first with Ok _ -> false || true | Error _ -> false)

let test_concurrent_counter_sum_exact () =
  let c = Obs.Metrics.counter "test_obs_concurrent_total" in
  let per_domain = 10_000 in
  let domains =
    Array.init 4 (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to per_domain do
              Obs.Metrics.incr c
            done))
  in
  Array.iter Domain.join domains;
  check ci "4 domains x 10k increments sum exactly" (4 * per_domain)
    (Obs.Metrics.counter_value c)

let test_summary_survives_clear_boundary () =
  with_fake_tracing (fun () ->
      for _ = 1 to 5 do
        Obs.Trace.span "loop" (fun () -> ())
      done;
      match List.assoc_opt "loop" (Obs.Trace.summary ()) with
      | Some (count, total) ->
          check ci "aggregate count" 5 count;
          check Alcotest.bool "aggregate total positive" true (total > 0.)
      | None -> Alcotest.fail "span name missing from summary")

let test_histogram_quantile () =
  let h = Obs.Metrics.histogram "test_obs_quantile_seconds" in
  check cf "empty histogram reads 0" 0. (Obs.Metrics.histogram_quantile h 0.5);
  (* One observation per bucket of the default bounds: 0.5→le0.5,
     1.5→le1.5, 3→le3, 100→+Inf. *)
  List.iter (Obs.Metrics.observe h) [ 0.5; 1.5; 3.0; 100.0 ];
  check cf "p25 hits the first bucket" 0.5
    (Obs.Metrics.histogram_quantile h 0.25);
  check cf "p50 hits the second bucket" 1.5
    (Obs.Metrics.histogram_quantile h 0.5);
  check cf "p75 hits the third bucket" 3.
    (Obs.Metrics.histogram_quantile h 0.75);
  (* The +Inf bucket reports the largest finite bound: a deliberate
     under-estimate so threshold comparisons err on the safe side. *)
  check cf "p100 under-estimates to the last finite bound" 10.
    (Obs.Metrics.histogram_quantile h 1.0);
  (* q is clamped: q = 0 reads the first bound, 1e-6, empty or not. *)
  check cf "q below 0 clamps" 1e-6 (Obs.Metrics.histogram_quantile h (-3.));
  check cf "q above 1 clamps" 10. (Obs.Metrics.histogram_quantile h 7.)

(* The default buckets resolve a latency to within one bucket ratio: a
   20 ms p95 queue wait, which admission control compares against
   --shed-wait-p95, reads as at most 25 ms rather than the next decade
   edge; and the p50 and p95 of a known spread come out at or above the
   true quantiles and less than one bucket ratio above them. *)
let test_default_bucket_resolution () =
  let h = Obs.Metrics.histogram "test_obs_default_resolution_seconds" in
  for _ = 1 to 100 do
    Obs.Metrics.observe h 0.02
  done;
  check Alcotest.bool "p95 of 100 × 20 ms reads at most 25 ms" true
    (Obs.Metrics.histogram_quantile h 0.95 <= 0.025);
  let bounds = Array.of_list Obs.Metrics.default_buckets in
  let ratio = ref 1. in
  for i = 1 to Array.length bounds - 1 do
    ratio := Float.max !ratio (bounds.(i) /. bounds.(i - 1))
  done;
  (* 1000 samples spread log-uniformly over 10 µs … 2 s, observed out
     of order. *)
  let n = 1000 in
  let samples =
    Array.init n (fun i -> 10. ** (-5. +. (5.3 *. float_of_int i /. float_of_int (n - 1))))
  in
  let spread = Obs.Metrics.histogram "test_obs_default_spread_seconds" in
  for i = 0 to n - 1 do
    Obs.Metrics.observe spread samples.((i * 7919) mod n)
  done;
  List.iter
    (fun q ->
      let truth = samples.(int_of_float (Float.ceil (q *. float_of_int n)) - 1) in
      let read = Obs.Metrics.histogram_quantile spread q in
      check Alcotest.bool
        (Printf.sprintf "p%.0f %g within one bucket ratio (%g) of %g" (100. *. q) read !ratio truth)
        true
        (truth <= read && read < truth *. !ratio))
    [ 0.5; 0.95 ]

let test_trace_ring_wrap () =
  (* The span ring holds 65536 events; the name-keyed aggregates and
     the recent-events window must both survive a wrap. *)
  with_fake_tracing (fun () ->
      let n = 65536 + 1000 in
      for _ = 1 to n do
        Obs.Trace.span "wrapped" (fun () -> ())
      done;
      (match List.assoc_opt "wrapped" (Obs.Trace.summary ()) with
      | Some (count, _) -> check ci "aggregate counts every span" n count
      | None -> Alcotest.fail "span name missing from summary");
      let evs = Obs.Trace.events () in
      check ci "ring serves the newest 65536" 65536 (List.length evs);
      check Alcotest.bool "every surviving event is the wrapped span" true
        (List.for_all (fun (name, _, _, _) -> String.equal name "wrapped") evs))

let test_ctx_identity_and_stats () =
  Obs.Ctx.reset_ids ();
  let a = Obs.Ctx.make ~conn:3 ~op:"load" () in
  let b = Obs.Ctx.make () in
  check ci "request ids count up from 1" 1 (Obs.Ctx.req a);
  check ci "each make gets a fresh id" 2 (Obs.Ctx.req b);
  check ci "conn as given" 3 (Obs.Ctx.conn a);
  check ci "conn defaults to -1" (-1) (Obs.Ctx.conn b);
  check Alcotest.bool "no ambient ctx outside with_ctx" true
    (Obs.Ctx.current () = None);
  Obs.Ctx.with_ctx a (fun () ->
      (match Obs.Ctx.current () with
      | Some c -> check ci "ambient ctx is the installed one" 1 (Obs.Ctx.req c)
      | None -> Alcotest.fail "no ambient ctx inside with_ctx");
      Obs.Ctx.add_ambient "memo.hits" 1.;
      Obs.Ctx.add_ambient "memo.hits" 2.;
      Obs.Ctx.add_ambient "store.bytes" 10.);
  check Alcotest.bool "ambient ctx restored on exit" true
    (Obs.Ctx.current () = None);
  check
    (Alcotest.list (Alcotest.pair cs cf))
    "stats accumulate and come back sorted"
    [ ("memo.hits", 3.); ("store.bytes", 10.) ]
    (Obs.Ctx.stats a);
  (* A fork shares the stats sink: attribution survives the domain
     hop that Pool.submit performs. *)
  let f = Obs.Ctx.fork a in
  Obs.Ctx.with_ctx f (fun () -> Obs.Ctx.add_ambient "memo.hits" 1.);
  check cf "fork writes land in the origin ctx" 4.
    (List.assoc "memo.hits" (Obs.Ctx.stats a));
  Obs.Ctx.reset_ids ()

let with_log_buffer f =
  let buf = Buffer.create 256 in
  Fun.protect
    ~finally:(fun () ->
      Obs.Log.disable ();
      Obs.Log.set_level Obs.Log.Info;
      Obs.Log.set_rate_limit 200;
      Obs.Clock.use_real ())
    (fun () ->
      Obs.Clock.use_fake ();
      Obs.Log.to_buffer buf;
      f buf)

let test_log_field_order_and_gate () =
  let run () =
    with_log_buffer (fun buf ->
        let ctx = Obs.Ctx.make ~conn:2 () in
        Obs.Log.info ~ctx "serve.request"
          [ ("op", Obs.Log.Str "load"); ("ok", Obs.Log.Bool true) ];
        Obs.Log.debug "dropped.by.level" [];
        Obs.Log.warn "store.corrupt" [ ("bytes", Obs.Log.Int 7) ];
        Buffer.contents buf)
  in
  Obs.Ctx.reset_ids ();
  let first = run () in
  Obs.Ctx.reset_ids ();
  let second = run () in
  check cs "two runs under the fake clock are byte-identical" first second;
  (match String.split_on_char '\n' first with
  | [ line1; line2; "" ] ->
      check cs "fixed field order: ts, level, event, req, conn, fields"
        {|{"ts":0.000000,"level":"info","event":"serve.request","req":1,"conn":2,"op":"load","ok":true}|}
        line1;
      check Alcotest.bool "debug filtered below the level gate" true
        (not (contains first "dropped.by.level"));
      check Alcotest.bool "warn passes the info gate" true
        (contains line2 {|"event":"store.corrupt"|});
      check Alcotest.bool "conn omitted when not attributed" true
        (not (contains line2 {|"conn"|}))
  | lines ->
      Alcotest.failf "expected 2 log lines, got %d" (List.length lines - 1));
  (* Every line is parseable JSON. *)
  String.split_on_char '\n' first
  |> List.iter (fun l ->
         if String.length l > 0 then
           match Jsonx.parse l with
           | Ok _ -> ()
           | Error m -> Alcotest.failf "log line is not JSON (%s): %s" m l)

let test_log_rate_limit () =
  with_log_buffer (fun buf ->
      (* step 0.001 and a 1 s window: the first [limit] events pass,
         the rest of the window drops, and the roll-over emits one
         log.suppressed accounting for the drops. *)
      Obs.Log.set_rate_limit 2;
      for _ = 1 to 1100 do
        Obs.Log.info "noisy.event" []
      done;
      let out = Buffer.contents buf in
      let lines =
        List.filter
          (fun l -> String.length l > 0)
          (String.split_on_char '\n' out)
      in
      let count needle =
        List.length (List.filter (fun l -> contains l needle) lines)
      in
      check Alcotest.bool "noisy event capped well below 1100" true
        (count {|"event":"noisy.event"|} <= 6);
      check Alcotest.bool "drops are accounted" true
        (count {|"event":"log.suppressed"|} >= 1);
      check Alcotest.bool "suppressed line names the event" true
        (contains out {|"of":"noisy.event"|}))

let test_slow_ring_bounded () =
  Fun.protect
    ~finally:(fun () ->
      Obs.Slow.clear ();
      Obs.Slow.set_capacity 64)
    (fun () ->
      Obs.Slow.clear ();
      Obs.Slow.set_capacity 4;
      for i = 1 to 10 do
        let ctx = Obs.Ctx.make ~conn:i () in
        Obs.Slow.note (Obs.Slow.of_ctx ctx ~wall_s:(float_of_int i))
      done;
      check ci "ring holds at most its capacity" 4 (Obs.Slow.length ());
      (match Obs.Slow.recent () with
      | newest :: _ ->
          check cf "newest first" 10. newest.Obs.Slow.wall_s
      | [] -> Alcotest.fail "ring is empty");
      check ci "recent ?limit truncates" 2
        (List.length (Obs.Slow.recent ~limit:2 ())))

(* The cross-domain contract: a span opened by a pool worker on
   another domain links to the span that was open on the submitting
   domain, and the link is the same whatever the worker count. *)
let test_cross_domain_parent_links () =
  let run jobs =
    Pool.with_pool ~jobs (fun pool ->
        let ctx = Obs.Ctx.make () in
        Obs.Ctx.set_collect ctx true;
        Obs.Ctx.with_ctx ctx (fun () ->
            Obs.Trace.span "outer" (fun () ->
                ignore
                  (Pool.map pool
                     (fun i -> Obs.Trace.span "chunk" (fun () -> i * i))
                     (Array.init 16 (fun i -> i)))));
        Obs.Ctx.spans ctx)
  in
  let check_tree spans =
    let outer_id =
      match
        List.find_opt (fun (n, _, _, _, _) -> String.equal n "outer") spans
      with
      | Some (_, _, _, id, _) -> id
      | None -> Alcotest.fail "outer span not collected"
    in
    let chunks =
      List.filter (fun (n, _, _, _, _) -> String.equal n "chunk") spans
    in
    check ci "one chunk span per item" 16 (List.length chunks);
    List.iter
      (fun (_, _, _, _, parent) ->
        check ci "chunk links to the submitting span" outer_id parent)
      chunks
  in
  check_tree (run 1);
  check_tree (run 4)

let suite =
  [
    Alcotest.test_case "histogram bucket edges are inclusive" `Quick
      test_histogram_bucket_edges;
    Alcotest.test_case "histogram quantile estimation" `Quick
      test_histogram_quantile;
    Alcotest.test_case "default buckets resolve quantiles" `Quick
      test_default_bucket_resolution;
    Alcotest.test_case "nested spans close in LIFO order" `Quick
      test_nested_spans_close_lifo;
    Alcotest.test_case "span records even when f raises" `Quick
      test_span_closes_on_exception;
    Alcotest.test_case "fake clock makes trace JSON deterministic" `Quick
      test_fake_clock_deterministic_trace;
    Alcotest.test_case "concurrent counter increments sum exactly" `Quick
      test_concurrent_counter_sum_exact;
    Alcotest.test_case "summary aggregates across spans" `Quick
      test_summary_survives_clear_boundary;
    Alcotest.test_case "trace ring wraps without losing aggregates" `Quick
      test_trace_ring_wrap;
    Alcotest.test_case "ctx identity, ambient stats and fork" `Quick
      test_ctx_identity_and_stats;
    Alcotest.test_case "log field order, level gate, determinism" `Quick
      test_log_field_order_and_gate;
    Alcotest.test_case "log rate limit accounts its drops" `Quick
      test_log_rate_limit;
    Alcotest.test_case "slow ring is bounded, newest first" `Quick
      test_slow_ring_bounded;
    Alcotest.test_case "cross-domain parent links are jobs-invariant" `Quick
      test_cross_domain_parent_links;
  ]
