(** Range cardinality estimation by descent to the split node
    (paper §5, Figure 5).

    Descend from the root along the path of nodes whose child span for
    the range is a single child.  The first node whose span covers
    more than one child is the *split node*, at level [l] (leaves are
    level 1).  With [k+1] children of the split node touching the
    range (the two edge children counted as one, i.e. [k]), the
    estimate is

      RangeRIDs ≈ k * f^(l-2) * L

    where [L] is the average leaf fill (entries per leaf), [C] the
    average children per internal node, and [f = max 1 (sqrt (L * C))]
    the single average fanout of the paper's [k * f^(l-1)].  Each of
    the [l - 2] internal levels below a split child multiplies by [f];
    the last level, the leaves, holds entries rather than children,
    so it multiplies by [L] instead of [f] — at [l = 2] the estimate
    is [k] leaf loads.  At [l = 1] the in-range leaf entries are
    counted exactly.

    The estimate costs one root-to-split path of node reads — it is
    "fast, well suited for small ranges, and always up-to-date".  Each
    node is read in place and its span found by binary search
    ({!Btree.span}); [L] and [C] are the tree's maintained counters,
    so nothing walks the tree. *)

open Rdb_storage

type result = {
  estimate : float;  (** estimated number of in-range entries *)
  exact : bool;  (** true when the split node was a leaf (l = 1) *)
  split_level : int;  (** l; leaves are 1 *)
  k : int;  (** effective child count at the split node *)
  nodes_visited : int;  (** estimation cost in node reads *)
}

val range : Btree.t -> Cost.t -> Btree.range -> result

val ranges : Btree.t -> Cost.t -> Btree.range list -> result
(** Sum of per-range descents (disjoint ranges assumed); exact iff
    every component was exact. *)

val selectivity : Btree.t -> Cost.t -> Btree.range -> float
(** Estimate divided by the tree cardinality, clamped to [0,1];
    0 for an empty tree. *)
