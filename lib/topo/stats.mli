(** Degree and connectivity statistics of topologies, used by the
    benchmark harness to report the structural quantities the paper
    discusses (average degree, fraction of degree < 3 nodes, 3-vertex
    connectivity of realizations). *)

open Nettomo_graph

type t = {
  nodes : int;
  links : int;
  avg_degree : float;
  min_degree : int;
  max_degree : int;
  degree_lt3_frac : float;  (** fraction of nodes with degree < 3 *)
  connected : bool;
}

val summary : Graph.t -> t
val pp : Format.formatter -> t -> unit

val degree_histogram : Graph.t -> (int * int) list
(** [(degree, count)] pairs in increasing degree order. *)

val mean : float list -> float
(** Arithmetic mean; 0 on the empty list. *)
