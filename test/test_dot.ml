open Nettomo_graph

let check = Alcotest.check
let cb = Alcotest.bool

let contains haystack needle =
  let lh = String.length haystack and ln = String.length needle in
  let rec scan i = i + ln <= lh && (String.sub haystack i ln = needle || scan (i + 1)) in
  ln = 0 || scan 0

let test_basic_render () =
  let s = Dot.to_dot Fixtures.triangle in
  check cb "graph header" true (contains s "graph G {");
  check cb "edge present" true (contains s "n0 -- n1");
  check cb "all edges" true (contains s "n1 -- n2" && contains s "n0 -- n2");
  check cb "closing brace" true (contains s "}")

let test_highlight () =
  let s =
    Dot.to_dot ~highlight:(Graph.NodeSet.singleton 1) Fixtures.triangle
  in
  check cb "highlighted node styled" true (contains s "fillcolor=lightblue");
  check cb "styling attached to node 1" true
    (contains s "n1 [label=\"1\" shape=box")

let test_labels () =
  let s = Dot.to_dot (Graph.of_edges [ (3, 17) ]) in
  check cb "each node labelled with its number" true
    (contains s "n3 [label=\"3\"];" && contains s "n17 [label=\"17\"];")

let test_name () =
  let s = Dot.to_dot ~name:"mmp" Fixtures.triangle in
  check cb "custom graph name" true (contains s "graph mmp {")

let test_write_file () =
  let file = Filename.temp_file "nettomo" ".dot" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      Dot.write_file file Fixtures.k4;
      let ic = open_in file in
      let content =
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      check cb "file contains the graph" true (contains content "n0 -- n1"))

let test_isolated_nodes_rendered () =
  let g = Graph.of_edges ~nodes:[ 9 ] [ (0, 1) ] in
  let s = Dot.to_dot g in
  check cb "isolated node declared" true (contains s "n9 [label=\"9\"]")

let suite =
  [
    Alcotest.test_case "basic render" `Quick test_basic_render;
    Alcotest.test_case "monitor highlighting" `Quick test_highlight;
    Alcotest.test_case "node labels" `Quick test_labels;
    Alcotest.test_case "graph name" `Quick test_name;
    Alcotest.test_case "write to file" `Quick test_write_file;
    Alcotest.test_case "isolated nodes rendered" `Quick test_isolated_nodes_rendered;
  ]
