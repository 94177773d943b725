(** Exhaustive enumeration of small graphs.

    The PoA experiments certify worst cases by searching over {e all} trees
    (or all connected graphs) of a given size, so enumeration has to be
    exact.  Rooted trees come from the Beyer–Hedetniemi successor algorithm
    on canonical level sequences; free trees are deduplicated with the AHU
    canonical code; connected graphs come from edge-subset enumeration. *)

val iter_rooted_trees : int -> (Graph.t * int -> unit) -> unit
(** [iter_rooted_trees n f] calls [f (g, root)] once per isomorphism class
    of rooted trees on [n] vertices.  Vertices are numbered in the order of
    the canonical level sequence (the root is [0]). *)

val rooted_tree_count : int -> int
(** [rooted_tree_count n] is the number of rooted trees on [n] vertices
    (OEIS A000081), counted by running the generator. *)

val iter_free_trees : ?shard:int * int -> int -> (Graph.t -> unit) -> unit
(** [iter_free_trees n f] streams one representative per isomorphism
    class of free trees on [n] vertices, in O(1) memory: a rooted tree
    from the Beyer–Hedetniemi stream is kept iff it is rooted at its
    centre (bicentral ties broken by the AHU code), so no seen-set is
    ever materialised.  The order — the {e canonical free-tree order} —
    is the subsequence of the rooted stream the filter keeps.

    [?shard:(k, m)] restricts the stream to the [k]-th of [m] contiguous
    index slices (two passes: count, then emit); concatenating the [m]
    slices in shard order is exactly the unsharded stream.
    @raise Invalid_argument if [n < 0] or the shard is not
    [0 <= k < m]. *)

val free_trees : int -> Graph.t list
(** [free_trees n] lists {!iter_free_trees}'s stream (OEIS A000055: 1,
    1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551, ... for n = 1, 2, 3, ...).
    @raise Invalid_argument if [n < 0] or [n > 20] (a guard against
    materialising the super-exponential blowup; shard and stream with
    {!iter_free_trees} beyond that). *)

val iter_labeled_trees : int -> (Graph.t -> unit) -> unit
(** [iter_labeled_trees n f] calls [f] on all [n^(n-2)] labelled trees
    (Prüfer enumeration).
    @raise Invalid_argument if [n > 9]. *)

val iter_connected_bitgraphs : int -> (Bitgraph.t -> unit) -> unit
(** [iter_connected_bitgraphs n f] calls [f] on every labelled connected
    graph on [n] vertices in increasing edge-mask order, reusing a single
    mutable {!Bitgraph.t} updated by one-bit deltas (amortised two edge
    flips per candidate).  [f] must not retain or mutate its argument —
    copy ({!Bitgraph.copy}) or convert ({!Bitgraph.to_graph}) to keep it.
    @raise Invalid_argument if [n > 7]. *)

val iter_connected_graphs : int -> (Graph.t -> unit) -> unit
(** [iter_connected_graphs n f] calls [f] on every labelled connected graph
    on [n] vertices (all [2^(n(n-1)/2)] edge subsets, filtered), in the
    same order as {!iter_connected_bitgraphs}.
    @raise Invalid_argument if [n > 7]. *)

val connected_graphs_iso : int -> Graph.t list
(** [connected_graphs_iso n] lists one representative per isomorphism
    class of connected graphs on [n] vertices (OEIS A001349: 1, 1, 2, 6,
    21, 112, 853, 11117 for n = 1..8), via {!iter_orderly_connected} —
    the representatives and their order are the {e orderly order}
    documented there, not the historical edge-mask first-occurrence
    order.
    @raise Invalid_argument if [n > 9]. *)

(** {2 Orderly (canonical-augmentation) generation}

    One representative per isomorphism class of connected graphs,
    McKay-style: a class on [n] vertices is produced by augmenting its
    unique parent class on [n - 1] vertices with one new vertex, and an
    augmentation is accepted only when the new vertex lies in the
    canonical removable orbit of the child (an isomorphism-invariant
    orbit of non-cut vertices: invariant-minimal, exact pointed-code
    tie-break).  No global dedup and no [2^(n(n-1)/2)] subset walk —
    the visit count is proportional to the classes themselves, which is
    what pushes exhaustive certification from n = 7 to n = 8.

    {b Orderly order} (the enumeration order of every function below,
    and the order the sweep engine folds in): parents in orderly order,
    then each parent's accepted children in increasing neighbour-mask
    order, deduped to first occurrence.  Deterministic, and identical
    however the forest is sharded. *)

val orderly_parents : int -> Bitgraph.t list
(** All classes on [n] vertices as bitgraphs, in orderly order.  These
    are the augmentation roots the shard layer partitions; treat them as
    read-only.
    @raise Invalid_argument if [n < 0] or [n > 9]. *)

val iter_orderly_children : Bitgraph.t -> (Bitgraph.t -> unit) -> unit
(** [iter_orderly_children parent f] calls [f] on each accepted child
    (one more vertex) of [parent], in orderly order.  [f] receives a
    fresh snapshot it may retain.  Children of distinct parent classes
    are never isomorphic, so expanding parents independently — across
    domains or across processes — needs no cross-parent dedup.
    @raise Invalid_argument if the child size would exceed 9. *)

val iter_orderly_connected : ?shard:int * int -> int -> (Bitgraph.t -> unit) -> unit
(** [iter_orderly_connected n f] calls [f] on one bitgraph per
    isomorphism class of connected graphs on [n] vertices, in orderly
    order ([f] may retain its argument).  [?shard:(k, m)] expands only
    the [k]-th of [m] contiguous blocks of level-[(n - 1)] parents;
    the blocks partition the classes, and concatenating them in shard
    order is exactly the unsharded enumeration.
    @raise Invalid_argument if [n < 0], [n > 9], or the shard is not
    [0 <= k < m]. *)

val connected_graphs_orderly : ?shard:int * int -> int -> Graph.t list
(** {!iter_orderly_connected}, materialised and converted. *)

(** {2 Isomorphism-class accumulator}

    Dedups a stream of labelled graphs into one representative per
    class, in first-occurrence order — e.g. the edge-mask walk of
    {!iter_connected_bitgraphs}, as a baseline for the orderly
    generator. *)

type iso_acc
(** Mutable isomorphism-class accumulator: fingerprint-keyed buckets of
    class representatives in first-occurrence order. *)

val iso_acc_create : int -> iso_acc
(** Fresh empty accumulator for graphs on [n] vertices. *)

val iso_acc_add : iso_acc -> Bitgraph.t -> unit
(** Record one candidate; snapshots it iff no isomorphic representative
    is present yet. *)

val iso_acc_graphs : iso_acc -> Graph.t list
(** Representatives in first-occurrence order, converted once. *)
