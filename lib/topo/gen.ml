open Nettomo_graph
open Nettomo_util

let check_n name n lo =
  if n < lo then Errors.invalid_arg (Printf.sprintf "Gen.%s: need at least %d nodes" name lo)

let with_nodes n = Graph.of_edges ~nodes:(List.init n Fun.id) []

let erdos_renyi rng ~n ~p =
  check_n "erdos_renyi" n 1;
  let g = ref (with_nodes n) in
  for u = 0 to n - 2 do
    for v = u + 1 to n - 1 do
      if Prng.bernoulli rng p then g := Graph.add_edge !g u v
    done
  done;
  !g

(* Skip-sampling over the lexicographic pair space: instead of one
   Bernoulli per pair, draw geometric gaps between successive kept
   pairs — O(n + m) expected work, the only way to realize the paper's
   models at 10^4 nodes. The draw stream differs from the dense
   generator, so this is a separate function rather than a drop-in. *)
let pair_space n =
  let row = ref 0 and row_start = ref 0 in
  fun k ->
    while k >= !row_start + (n - 1 - !row) do
      row_start := !row_start + (n - 1 - !row);
      incr row
    done;
    (!row, !row + 1 + (k - !row_start))

let skip_sample rng n p keep =
  let total = n * (n - 1) / 2 in
  if p > 0.0 then begin
    let log_q = Float.log (1.0 -. p) in
    let node_pair = pair_space n in
    let pos = ref (-1) and running = ref true in
    while !running do
      let u = Prng.float rng 1.0 in
      let gap = Float.log (1.0 -. u) /. log_q in
      if Float.is_nan gap || gap >= float_of_int (total - !pos) then
        running := false
      else begin
        pos := !pos + 1 + int_of_float gap;
        if !pos >= total then running := false
        else begin
          let a, b = node_pair !pos in
          keep a b
        end
      end
    done
  end

let erdos_renyi_sparse rng ~n ~p =
  check_n "erdos_renyi_sparse" n 1;
  if p < 0.0 || p >= 1.0 then
    Errors.invalid_arg "Gen.erdos_renyi_sparse: p must be in [0, 1)";
  let g = ref (with_nodes n) in
  skip_sample rng n p (fun a b -> g := Graph.add_edge !g a b);
  !g

let random_geometric_with_coords rng ~n ~radius =
  check_n "random_geometric" n 1;
  let coords = Array.init n (fun _ -> (Prng.float rng 1.0, Prng.float rng 1.0)) in
  let g = ref (with_nodes n) in
  let r2 = radius *. radius in
  for u = 0 to n - 2 do
    for v = u + 1 to n - 1 do
      let xu, yu = coords.(u) and xv, yv = coords.(v) in
      let dx = xu -. xv and dy = yu -. yv in
      if (dx *. dx) +. (dy *. dy) <= r2 then g := Graph.add_edge !g u v
    done
  done;
  (!g, coords)

let random_geometric rng ~n ~radius = fst (random_geometric_with_coords rng ~n ~radius)

let barabasi_albert rng ~n ~nmin =
  check_n "barabasi_albert" n 4;
  if nmin < 1 then Errors.invalid_arg "Gen.barabasi_albert: nmin must be ≥ 1";
  (* The paper's seed: a 3-leaf star on nodes 0..3. The degree "bag"
     holds each node once per unit of degree, so uniform draws from it
     implement preferential attachment. The bag grows at the front in
     draw order but only ever by appends in time order, so it lives in
     a preallocated array filled back-to-front logically: slot
     [size - 1 - i] is the bag's element [i]. This keeps every draw
     identical to the original list representation while making each
     attachment O(1) instead of rebuilding an array per node. *)
  let total_edges = ref 3 in
  for v = 4 to n - 1 do
    total_edges := !total_edges + min v nmin
  done;
  let bag = Array.make (2 * !total_edges) 0 in
  List.iteri (fun i x -> bag.(i) <- x) [ 3; 2; 1; 0; 0; 0 ];
  let bag_size = ref 6 in
  let push x =
    bag.(!bag_size) <- x;
    incr bag_size
  in
  let g = ref (Graph.of_edges [ (0, 1); (0, 2); (0, 3) ]) in
  for v = 4 to n - 1 do
    let existing = v in
    let targets =
      if existing <= nmin then List.init existing Fun.id
      else begin
        (* Draw distinct degree-weighted targets. *)
        let chosen = Hashtbl.create nmin in
        while Hashtbl.length chosen < nmin do
          let t = bag.(!bag_size - 1 - Prng.int rng !bag_size) in
          if not (Hashtbl.mem chosen t) then Hashtbl.replace chosen t ()
        done;
        (* Sorted extraction: the targets feed the degree bag, so the
           bucket order of [chosen] would otherwise leak into every
           later draw and tie generated topologies to the runtime's
           hash implementation. *)
        Hashtbl.fold (fun t () acc -> t :: acc) chosen []
        |> List.sort Int.compare
      end
    in
    List.iter
      (fun t ->
        g := Graph.add_edge !g t v;
        push v;
        push t)
      targets
  done;
  !g

let power_law rng ~n ~alpha =
  check_n "power_law" n 1;
  if alpha <= 0.0 then Errors.invalid_arg "Gen.power_law: alpha must be positive";
  let d = Array.init n (fun i -> Float.pow (float_of_int (i + 1)) alpha) in
  let total = Array.fold_left ( +. ) 0.0 d in
  let g = ref (with_nodes n) in
  for u = 0 to n - 2 do
    for v = u + 1 to n - 1 do
      let p = Float.min 1.0 (d.(u) *. d.(v) /. total) in
      if Prng.bernoulli rng p then g := Graph.add_edge !g u v
    done
  done;
  !g

let waxman rng ~n ~alpha ~beta =
  check_n "waxman" n 1;
  if alpha <= 0.0 || alpha > 1.0 || beta <= 0.0 || beta > 1.0 then
    Errors.invalid_arg "Gen.waxman: alpha and beta must be in (0, 1]";
  let coords = Array.init n (fun _ -> (Prng.float rng 1.0, Prng.float rng 1.0)) in
  let scale = alpha *. Float.sqrt 2.0 in
  let g = ref (with_nodes n) in
  for u = 0 to n - 2 do
    for v = u + 1 to n - 1 do
      let xu, yu = coords.(u) and xv, yv = coords.(v) in
      let d = Float.hypot (xu -. xv) (yu -. yv) in
      if Prng.bernoulli rng (beta *. Float.exp (-.d /. scale)) then
        g := Graph.add_edge !g u v
    done
  done;
  !g

let waxman_sparse rng ~n ~alpha ~beta =
  check_n "waxman_sparse" n 1;
  if alpha <= 0.0 || alpha > 1.0 || beta <= 0.0 || beta >= 1.0 then
    Errors.invalid_arg "Gen.waxman_sparse: alpha in (0, 1], beta in (0, 1)";
  let coords = Array.init n (fun _ -> (Prng.float rng 1.0, Prng.float rng 1.0)) in
  let scale = alpha *. Float.sqrt 2.0 in
  let g = ref (with_nodes n) in
  (* Thinning: every pair's probability beta·exp(−d/(α√2)) is at most
     beta, so skip-sample candidates at rate beta and keep each with
     the conditional probability exp(−d/(α√2)). *)
  skip_sample rng n beta (fun u v ->
      let xu, yu = coords.(u) and xv, yv = coords.(v) in
      let d = Float.hypot (xu -. xv) (yu -. yv) in
      if Prng.bernoulli rng (Float.exp (-.d /. scale)) then
        g := Graph.add_edge !g u v);
  !g

exception Retries_exhausted of { tries : int }

let () =
  Printexc.register_printer (function
    | Retries_exhausted { tries } ->
        Some
          (Printf.sprintf
             "Gen.until_connected: no connected realization in %d tries" tries)
    | _ -> None)

let max_tries = 1000

let until_connected draw =
  let rec loop i =
    if i >= max_tries then raise (Retries_exhausted { tries = max_tries })
    else begin
      let g = draw () in
      if Graph.n_nodes g > 0 && Traversal.is_connected g then g else loop (i + 1)
    end
  in
  loop 0

let complete n =
  check_n "complete" n 1;
  let g = ref (with_nodes n) in
  for u = 0 to n - 2 do
    for v = u + 1 to n - 1 do
      g := Graph.add_edge !g u v
    done
  done;
  !g

let ring n =
  check_n "ring" n 3;
  Graph.of_edges ((n - 1, 0) :: List.init (n - 1) (fun i -> (i, i + 1)))

let grid r c =
  if r < 1 || c < 1 then Errors.invalid_arg "Gen.grid: non-positive dimension";
  let id i j = (i * c) + j in
  let edges = ref [] in
  for i = 0 to r - 1 do
    for j = 0 to c - 1 do
      if j + 1 < c then edges := (id i j, id i (j + 1)) :: !edges;
      if i + 1 < r then edges := (id i j, id (i + 1) j) :: !edges
    done
  done;
  Graph.of_edges ~nodes:(List.init (r * c) Fun.id) !edges

let random_tree rng ~n =
  check_n "random_tree" n 1;
  let g = ref (with_nodes n) in
  for v = 1 to n - 1 do
    g := Graph.add_edge !g (Prng.int rng v) v
  done;
  !g

let random_connected rng ~n ~extra =
  let g = ref (random_tree rng ~n) in
  let added = ref 0 in
  let attempts = ref 0 in
  while !added < extra && !attempts < 50 * (extra + 1) do
    incr attempts;
    let u = Prng.int rng n and v = Prng.int rng n in
    if u <> v && not (Graph.mem_edge !g u v) then begin
      g := Graph.add_edge !g u v;
      incr added
    end
  done;
  !g
