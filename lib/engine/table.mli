(** Tables: a heap file plus any number of B+-tree indexes and the
    adaptive statistics the dynamic optimizer keeps per table (§5's
    "freshly reordered indexes are used for the next retrieval
    estimates as a starting point"). *)

open Rdb_btree
open Rdb_data
open Rdb_storage

type index = {
  idx_name : string;
  key_columns : string list;  (** in key order *)
  key_ids : int array;  (** column positions in the table schema *)
  tree : Btree.t;
}

type t

val create : ?page_bytes:int -> Buffer_pool.t -> name:string -> Schema.t -> t

val name : t -> string
val schema : t -> Schema.t
val heap : t -> Heap_file.t
val pool : t -> Buffer_pool.t
val indexes : t -> index list
val find_index : t -> string -> index option

val row_count : t -> int
val page_count : t -> int

val insert : t -> Row.t -> Rid.t
(** Validates against the schema (raises [Invalid_argument] on
    mismatch) and maintains all indexes.  Maintenance I/O is charged
    to an internal build meter, not to any query. *)

val delete : t -> Rid.t -> bool
(** Remove the row and its index entries. *)

val update : t -> Rid.t -> Row.t -> bool
(** Replace the row in place, maintaining every index whose key
    changed.  [false] if the RID is dead.  Raises [Invalid_argument]
    on schema mismatch. *)

val create_index : t -> ?fanout:int -> name:string -> columns:string list -> unit -> index
(** Build a new index over existing rows.  Raises [Invalid_argument]
    on duplicate name or unknown column. *)

val index_key : index -> Row.t -> Btree.key
(** Project a row onto the index key columns. *)

val index_covers : index -> columns:string list -> bool
(** Self-sufficiency (§4): every needed column is in the index key. *)

val index_provides_order : index -> order:string list -> bool
(** Order-needed check: the requested column order is a prefix of the
    index key (ascending). *)

val build_meter : t -> Cost.t
(** Accumulated maintenance cost (loads, index builds). *)

val clustering_factor : t -> index -> float
(** Fraction of consecutive index entries (sampled over the first
    4096) whose RIDs land on the same or the next data page — 1.0 for
    an index whose order coincides with physical placement, near
    [records_per_page / row_count] for a random one.  The paper's
    §3(b) uncertainty source, measured instead of guessed.  Cached
    until the row count moves by more than 10%%. *)

(** {1 Adaptive per-table statistics} *)

val preferred_order : t -> string list
(** Index names in the order the last initial stage found best;
    empty initially. *)

val set_preferred_order : t -> string list -> unit

val feedback : t -> Feedback.t
(** The table's cardinality-feedback store ({!Feedback}): learned
    multiplicative corrections from completed scans, consumed by the
    initial stage when the retrieval config enables a learning rate.
    Reset by {!invalidate_stats} (and therefore by {!replace_index})
    because learned factors describe the old physical tree. *)

(** {1 Self-healing} *)

val heap_structure : string
(** The health-registry name of the heap ("heap"); indexes register
    under their index names. *)

val health : t -> Health.t
(** The table's per-structure health registry.  Consult it with
    {!now} as the clock. *)

val now : t -> float
(** The health clock: total cost ever charged through this table's
    pool (deterministic; no wall time). *)

val structure_of_file : t -> int -> string option
(** Map a pool file id to the structure it backs — [heap_structure]
    for the heap file, the index name for an index tree file; [None]
    for files this table does not own (spill space, other tables). *)

val index_usable : t -> index -> bool
(** [Health.usable] on the index at {!now}: quarantined-in-backoff and
    rebuilding indexes must not be planned with. *)

val note_transition : t -> Health.transition option -> Health.transition option
(** Pass-through that counts the transition in the pool's metrics
    registry (when attached).  Callers emit the trace event. *)

val invalidate_stats : t -> unit
(** Drop the clustering cache, the adaptive preferred order and the
    learned feedback factors — the estimation re-seed after a
    structural change. *)

val reset_volatile : t -> unit
(** Crash teardown (DESIGN.md §15): drop every piece of this table's
    soft state — the health registry's entries ({!Health.reset}) plus
    everything {!invalidate_stats} drops.  Heap contents, committed
    trees and the pool's manifest are durable and untouched; restart
    recovery reconstructs health from the manifest's verdicts. *)

val replace_index : t -> name:string -> Btree.t -> unit
(** Atomically swap in a rebuilt tree for the named index: the new
    file takes over the index's pool label and becomes the committed
    tree in the pool's manifest, the old file's resident blocks are
    evicted, and cached estimation state is invalidated
    ({!invalidate_stats}).  Raises [Invalid_argument] on an unknown
    name. *)
