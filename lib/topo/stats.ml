open Nettomo_graph

type t = {
  nodes : int;
  links : int;
  avg_degree : float;
  min_degree : int;
  max_degree : int;
  degree_lt3_frac : float;
  connected : bool;
}

let summary g =
  let n = Graph.n_nodes g in
  let m = Graph.n_edges g in
  let lt3 = Graph.fold_nodes (fun v acc -> if Graph.degree g v < 3 then acc + 1 else acc) g 0 in
  {
    nodes = n;
    links = m;
    avg_degree = (if n = 0 then 0.0 else 2.0 *. float_of_int m /. float_of_int n);
    min_degree = (if n = 0 then 0 else Graph.min_degree g);
    max_degree = (if n = 0 then 0 else Graph.max_degree g);
    degree_lt3_frac = (if n = 0 then 0.0 else float_of_int lt3 /. float_of_int n);
    connected = Traversal.is_connected g;
  }

let pp ppf t =
  Format.fprintf ppf
    "@[<h>|V|=%d |L|=%d avg_deg=%.2f deg∈[%d,%d] deg<3: %.1f%% %s@]" t.nodes
    t.links t.avg_degree t.min_degree t.max_degree (100.0 *. t.degree_lt3_frac)
    (if t.connected then "connected" else "DISCONNECTED")

let degree_histogram g =
  let tbl = Hashtbl.create 16 in
  Graph.iter_nodes
    (fun v ->
      let d = Graph.degree g v in
      Hashtbl.replace tbl d (1 + Option.value ~default:0 (Hashtbl.find_opt tbl d)))
    g;
  Hashtbl.fold (fun d c acc -> (d, c) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let mean = function
  | [] -> 0.0
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)
