module Errors = Nettomo_util.Errors
module NS = Graph.NodeSet
module Prng = Nettomo_util.Prng

type path = Graph.node list

let is_simple_path g p =
  let rec distinct seen = function
    | [] -> true
    | v :: rest -> (not (NS.mem v seen)) && distinct (NS.add v seen) rest
  in
  let rec linked = function
    | u :: (v :: _ as rest) -> Graph.mem_edge g u v && linked rest
    | [ v ] -> Graph.mem_node g v
    | [] -> false
  in
  match p with [] | [ _ ] -> false | _ -> distinct NS.empty p && linked p

let path_edges p =
  let rec loop acc = function
    | u :: (v :: _ as rest) -> loop (Graph.edge u v :: acc) rest
    | [ _ ] -> List.rev acc
    | [] -> Errors.invalid_arg "Paths.path_edges: empty path"
  in
  match p with
  | [] | [ _ ] -> Errors.invalid_arg "Paths.path_edges: need at least two nodes"
  | _ -> loop [] p

let length p =
  match p with
  | [] -> Errors.invalid_arg "Paths.length: empty path"
  | _ -> List.length p - 1

exception Limit_exceeded

(* The one simple-path enumerator: backtracking DFS from [src] with
   neighbours in increasing order, passing each path to [dst] to [found]
   as a reversed node list. Returns the number of paths, and raises
   {!Limit_exceeded} on path [limit + 1]. *)
let simple_paths ~limit name g src dst found =
  if src = dst then Errors.invalid_arg (name ^ ": equal endpoints");
  if not (Graph.mem_node g src && Graph.mem_node g dst) then
    Errors.invalid_arg (name ^ ": unknown endpoint");
  let count = ref 0 in
  let rec dfs v prefix visited =
    if v = dst then begin
      incr count;
      if !count > limit then raise Limit_exceeded;
      found (v :: prefix)
    end
    else
      NS.iter
        (fun u ->
          if not (NS.mem u visited) then
            dfs u (v :: prefix) (NS.add u visited))
        (Graph.neighbors g v)
  in
  dfs src [] (NS.singleton src);
  !count

let iter_simple_paths g src dst found =
  ignore (simple_paths ~limit:200_000 "Paths.iter_simple_paths" g src dst found)

let all_simple_paths ?(limit = 200_000) g src dst =
  let acc = ref [] in
  ignore
    (simple_paths ~limit "Paths.all_simple_paths" g src dst (fun rev ->
         acc := List.rev rev :: !acc));
  List.rev !acc

let count_simple_paths ?(limit = 5_000_000) g src dst =
  simple_paths ~limit "Paths.count_simple_paths" g src dst ignore

let random_simple_path rng g src dst =
  if src = dst then Errors.invalid_arg "Paths.random_simple_path: equal endpoints";
  if not (Graph.mem_node g src && Graph.mem_node g dst) then
    Errors.invalid_arg "Paths.random_simple_path: unknown endpoint";
  (* Randomized DFS with permanent marks: each node is expanded at most
     once, so the search is linear, it still reaches [dst] whenever the
     two nodes are connected, and the DFS-tree path to [dst] is simple.
     (Per-branch marks would sample paths more uniformly but can take
     exponential time on graphs with dead-end clusters.) *)
  let visited = Hashtbl.create 64 in
  let rec dfs v prefix =
    if v = dst then Some (List.rev (v :: prefix))
    else begin
      let nbrs = Array.of_list (Graph.neighbor_list g v) in
      Prng.shuffle rng nbrs;
      let rec try_nbrs i =
        if i >= Array.length nbrs then None
        else begin
          let u = nbrs.(i) in
          if Hashtbl.mem visited u then try_nbrs (i + 1)
          else begin
            Hashtbl.replace visited u ();
            match dfs u (v :: prefix) with
            | Some p -> Some p
            | None -> try_nbrs (i + 1)
          end
        end
      in
      try_nbrs 0
    end
  in
  Hashtbl.replace visited src ();
  dfs src []
