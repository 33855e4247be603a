open Nettomo_topo

let check = Alcotest.check
let ci = Alcotest.int
let cb = Alcotest.bool
let cf = Alcotest.float 1e-9

let test_summary_known () =
  let s = Stats.summary Fixtures.k4 in
  check ci "nodes" 4 s.Stats.nodes;
  check ci "links" 6 s.Stats.links;
  check cf "avg degree" 3.0 s.Stats.avg_degree;
  check ci "min degree" 3 s.Stats.min_degree;
  check ci "max degree" 3 s.Stats.max_degree;
  check cf "no low-degree nodes" 0.0 s.Stats.degree_lt3_frac;
  check cb "connected" true s.Stats.connected

let test_summary_star () =
  let s = Stats.summary (Fixtures.star 5) in
  check cf "5/6 below degree 3" (5.0 /. 6.0) s.Stats.degree_lt3_frac;
  check ci "hub degree" 5 s.Stats.max_degree

let test_degree_histogram () =
  let h = Stats.degree_histogram (Fixtures.star 4) in
  check
    (Alcotest.list (Alcotest.pair ci ci))
    "star histogram"
    [ (1, 4); (4, 1) ]
    h;
  let total = List.fold_left (fun a (_, c) -> a + c) 0 h in
  check ci "histogram covers all nodes" 5 total

let test_mean () =
  check cf "mean" 2.0 (Stats.mean [ 1.0; 2.0; 3.0 ]);
  check cf "mean empty" 0.0 (Stats.mean [])

let suite =
  [
    Alcotest.test_case "summary of K4" `Quick test_summary_known;
    Alcotest.test_case "summary of star" `Quick test_summary_star;
    Alcotest.test_case "degree histogram" `Quick test_degree_histogram;
    Alcotest.test_case "mean" `Quick test_mean;
  ]
