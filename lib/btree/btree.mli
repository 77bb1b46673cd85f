(** B+-tree index.

    A from-scratch B+-tree over composite {!Rdb_data.Value.t} keys with
    RID postings.  Duplicate keys are supported (entries are unique on
    the (key, rid) pair).  Every node visit is charged to a cost meter
    through the shared buffer pool, so index scans compete for cache
    with data pages — the §3(b,c) uncertainty sources.

    Beyond search/insert/delete/range-cursor, the tree serves as the
    paper's *hierarchical histogram*: {!Estimate} implements the §5
    descent-to-split-node range estimator and {!Sampling} the
    B+-tree random sampling of [OlRo89]/[Ant92]. *)

open Rdb_data
open Rdb_storage

type key = Value.t array

type t

val create : ?fanout:int -> Buffer_pool.t -> t
(** [fanout] is the maximum entries per leaf and maximum children per
    internal node (minimum 3, default 64). *)

val fanout : t -> int
val file_id : t -> int

val compare_key : key -> key -> int
(** Lexicographic; shorter keys compare as prefixes (a shorter key
    equal on its length compares equal), so partial keys can serve as
    range bounds.  Allocates nothing. *)

val cardinality : t -> int
(** Number of (key, rid) entries. *)

val height : t -> int
(** 1 for a tree that is a single leaf. *)

(** {2 Shape}

    The tree maintains its leaf count, internal-node count and the
    total children of its internal nodes where nodes split, merge and
    collapse, so these read counters in O(1) and never walk the tree
    ({!self_check} verifies the counters against a walk). *)

val node_count : t -> int
val leaf_count : t -> int

val leaf_blocks : t -> int list
(** Block indexes of the leaves, left to right — the valid targets for
    a {!Rdb_storage.Fault} corruption plan against this index's
    file. *)

val avg_leaf_entries : t -> float
(** Cardinality over leaf count. *)

val avg_internal_children : t -> float
(** Children per internal node; the cardinality (at least 1) when the
    tree is a single leaf. *)

val insert : t -> Cost.t -> key -> Rid.t -> unit
(** Duplicate (key, rid) pairs are ignored. *)

val delete : t -> Cost.t -> key -> Rid.t -> bool
(** Remove the exact (key, rid) entry; [false] if absent. *)

val mem : t -> Cost.t -> key -> Rid.t -> bool

(** {1 Range bounds} *)

type bound = Incl of key | Excl of key | Unbounded

type range = { lo : bound; hi : bound }

val full_range : range
val range_incl : key -> key -> range
val point_range : key -> range

val in_range : range -> key -> bool

(** {1 Cursors} *)

type cursor

val cursor : t -> Cost.t -> range -> cursor
(** Positioned at the first in-range entry; descent nodes are
    charged. *)

val next : cursor -> (key * Rid.t) option
(** Entries in key order; leaf transitions charge one access.  Returns
    [None] past the range end (and keeps returning [None]). *)

val consumed : cursor -> int
(** Entries delivered so far — Jscan's progress measure. *)

(** {2 Multi-range cursors}

    A candidate restriction can map to several disjoint ranges (an
    IN-list on the leading key column).  The multi-cursor drains the
    ranges in the given order; passing them sorted by key keeps the
    overall delivery in index order. *)

type multi_cursor

val multi_cursor : t -> Cost.t -> range list -> multi_cursor
val multi_next : multi_cursor -> (key * Rid.t) option
val multi_consumed : multi_cursor -> int

val iter_range : t -> Cost.t -> range -> (key -> Rid.t -> unit) -> unit

val count_range : t -> Cost.t -> range -> int
(** Exact count by scanning (test/oracle use). *)

(** {1 Internal structure access (estimator, sampler, tests)} *)

type node_view =
  | Leaf_view of (key * Rid.t) array
  | Internal_view of key array * node_ref array

and node_ref

val root : t -> node_ref
val view : t -> Cost.t -> node_ref -> node_view
(** Viewing a node charges one block access and copies its contents. *)

val span : t -> Cost.t -> node_ref -> range -> int * int
(** [span t meter node r] reads [node] in place — one charged block
    access, no copy — and returns the slots [(first, past)] that may
    hold keys in [r], each found by binary search.  In a leaf, entries
    [first] to [past - 1] are exactly the in-range ones; in an internal
    node, children [first] to [past] may hold in-range keys.  Always
    [first <= past].  The cursor's descent uses the same search. *)

val is_leaf : node_ref -> bool

val child : node_ref -> int -> node_ref
(** [child node i] is the [i]-th child of an internal node;
    [Invalid_argument] on a leaf. *)

val subtree_count : t -> node_ref -> int
(** Maintained entry count of the subtree (free: stored in the
    parent-side ranking info; used by pseudo-ranked sampling). *)

val self_check : t -> (unit, string) result
(** Validate ordering, fill, linkage and count invariants, including
    the maintained shape counters against a walk of the tree. *)
