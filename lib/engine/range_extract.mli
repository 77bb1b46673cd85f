(** Extraction of an index range from a bound restriction.

    Given the table-wide Boolean restriction (bound: no host variables
    left), determine for one index the narrowest B-tree range that is
    guaranteed to contain every qualifying row, plus the *residual*
    restriction that must still be evaluated per row.  The shape is the
    classical one: an equality prefix on the leading key columns
    followed by at most one range column — or, when the stopping
    column carries a small constant IN-list, a union of point ranges
    (one per value, in key order).

    Conjuncts comparing against NULL are never absorbed (they can only
    evaluate to Unknown), and absorbed upper-bound-only ranges get an
    explicit NULL-excluding lower bound, because NULL keys sort first
    in the tree. *)

open Rdb_btree

type t = {
  ranges : Btree.range list;
      (** disjoint, in key order; usually a single range, several for
          an absorbed IN-list on the stopping key column *)
  residual : Predicate.t;  (** what the ranges do not guarantee *)
  bounded : bool;  (** false when the single range is the whole index *)
  eq_prefix : int;  (** number of leading equality columns absorbed *)
}

val for_index : Predicate.t -> Table.index -> t
(** The restriction must be bound ({!Predicate.is_bound}); raises
    [Invalid_argument] otherwise. *)
