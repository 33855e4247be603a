let to_dot ?(name = "G") ?(highlight = Graph.NodeSet.empty) g =
  let buf = Buffer.create 1024 in
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pf "graph %s {\n" name;
  pf "  node [shape=circle fontsize=10];\n";
  Graph.iter_nodes
    (fun v ->
      let attrs =
        if Graph.NodeSet.mem v highlight then
          " shape=box style=filled fillcolor=lightblue"
        else ""
      in
      pf "  n%d [label=\"%d\"%s];\n" v v attrs)
    g;
  Graph.iter_edges (fun (u, v) -> pf "  n%d -- n%d;\n" u v) g;
  pf "}\n";
  Buffer.contents buf

let write_file ?name ?highlight file g =
  let oc = open_out file in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_dot ?name ?highlight g))
