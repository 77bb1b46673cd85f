(** Random sampling from B+-trees.

    Two samplers over the in-range entries of an index:

    - {!acceptance_rejection} — Olken & Rotem [OlRo89]: random root-to-
      leaf descent choosing children uniformly, accepting the drawn
      entry with probability (∏ fill_i) / f^height; rejected descents
      are retried, wasting node reads.
    - {!ranked} — the pseudo-ranked descent of [Ant92]: children are
      chosen proportionally to maintained subtree counts, so every
      descent yields a sample (no rejections) at the cost of keeping
      the counts (maintained for free on the insert/delete path here).

    Sampling estimates the selectivity of *arbitrary* predicates over
    in-range entries — the §5 refinement beyond descent-to-split, able
    to handle "pattern matching, complex arithmetic, comparing
    attributes of the same index". *)

open Rdb_data
open Rdb_storage

type stats = {
  samples : (Btree.key * Rid.t) array;
  descents : int;  (** total root-to-leaf walks, including rejected *)
  nodes_visited : int;
}

val acceptance_rejection : Rdb_util.Prng.t -> Btree.t -> Cost.t -> n:int -> stats
(** Draw [n] (near-)uniform samples from the whole tree.  At most
    [50 * n] descents bound the retry loop on very unbalanced trees;
    the result may then hold fewer than [n] samples. *)

val ranked : Rdb_util.Prng.t -> Btree.t -> Cost.t -> n:int -> stats
(** Draw [n] exactly-uniform samples (with replacement) using subtree
    counts. *)

val estimate_fraction :
  Rdb_util.Prng.t ->
  Btree.t ->
  Cost.t ->
  n:int ->
  (Btree.key -> Rid.t -> bool) ->
  float
(** Fraction of entries satisfying the predicate, estimated from [n]
    ranked samples; 0 on an empty tree. *)
