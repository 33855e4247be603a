(** Sparse k-connectivity certificates
    (Nagamochi–Ibaraki / Cheriyan–Kao–Thurimella).

    The union of [k] successively-extracted breadth-first spanning
    forests — BFS is a special case of scan-first search — is a sparse
    certificate for k-vertex-connectivity: it has at most [k·(|V|−1)]
    links, and it is k-vertex-connected iff the original graph is (more
    generally, it preserves all vertex-connectivity values up to [k],
    and every cut vertex / separation pair of the certificate is one of
    the original graph and vice versa, as long as connectivity stays
    below [k]).

    This matters for the identifiability test on dense networks: the
    3-vertex-connectivity sweep costs [O(|V|·(|V|+|L|))], so replacing
    [L] by a certificate of ≤ [3·|V|] links first makes the test
    effectively [O(|V|²)] regardless of density. *)

val forest_partition : Graph.t -> k:int -> Graph.EdgeSet.t list
(** The first [k] BFS spanning forests: [F₁] is
    {!Traversal.spanning_tree} of [G], [F₂] of [G − F₁], and so on. Some
    trailing forests may be empty. *)

val certificate : Graph.t -> k:int -> Graph.t
(** Union of the first [k] forests, over the same node set. At most
    [k·(|V|−1)] links. Requires [k ≥ 1]. *)

val is_three_vertex_connected : Graph.t -> bool
(** {!Separation.is_three_vertex_connected} on the 3-certificate —
    same verdict, faster on dense graphs. *)
