open Nettomo_graph

exception Parse_error of { line : int; message : string }

let () =
  Printexc.register_printer (function
    | Parse_error { line; message } ->
        Some (Printf.sprintf "Edgelist: line %d: %s" line message)
    | _ -> None)

let parse_error line fmt =
  Printf.ksprintf (fun message -> raise (Parse_error { line; message })) fmt

let strip_comment line =
  match String.index_opt line '#' with
  | Some i -> String.sub line 0 i
  | None -> line

(* Fields are separated by any run of blanks — tab-separated edge files
   (the common TSV export shape) parse the same as space-separated
   ones. *)
let fields line =
  String.map (function '\t' -> ' ' | c -> c) line
  |> String.split_on_char ' '
  |> List.filter (( <> ) "")

let of_string s =
  let g = ref Graph.empty in
  let lines = String.split_on_char '\n' s in
  List.iteri
    (fun lineno line ->
      let line = String.trim (strip_comment line) in
      if line <> "" then begin
        match fields line with
        | [ "node"; v ] -> (
            match int_of_string_opt v with
            | Some v -> g := Graph.add_node !g v
            | None -> parse_error (lineno + 1) "bad node id %S" v)
        | [ u; v ] -> (
            match (int_of_string_opt u, int_of_string_opt v) with
            | Some u, Some v when u <> v -> g := Graph.add_edge !g u v
            | Some u, Some v when u = v ->
                parse_error (lineno + 1) "self-loop %d" u
            | _ -> parse_error (lineno + 1) "bad link %S" line)
        | _ -> parse_error (lineno + 1) "expected two fields, got %S" line
      end)
    lines;
  let g = !g in
  Nettomo_util.Invariant.check (fun () -> Graph.Invariant.check g);
  g

let parse s =
  match of_string s with
  | g -> Ok g
  | exception Parse_error { line; message } ->
      Error (Printf.sprintf "line %d: %s" line message)

let to_string g =
  let buf = Buffer.create 1024 in
  Printf.bprintf buf "# %d nodes, %d links\n" (Graph.n_nodes g) (Graph.n_edges g);
  Graph.iter_nodes
    (fun v -> if Graph.degree g v = 0 then Printf.bprintf buf "node %d\n" v)
    g;
  Graph.iter_edges (fun (u, v) -> Printf.bprintf buf "%d %d\n" u v) g;
  Buffer.contents buf

let read_file file =
  let ic = open_in file in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> of_string (really_input_string ic (in_channel_length ic)))
