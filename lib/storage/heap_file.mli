(** Slotted-page heap file.

    Records are appended to pages of a fixed byte capacity; a record's
    RID is its (page, slot) address and never changes.  Every page
    access goes through the buffer pool, so sequential scans, random
    fetches, and clustering effects cost what they should.

    A page keeps each record as its row, copied once when it is
    inserted or updated.  Every reader — {!fetch}, {!fetch_via}, the
    scan cursor and {!iter} — is handed that same stored array, never a
    copy: it is shared with the page and with every other reader, and
    must never be mutated (see {!Row}).  A page still accounts each
    record by its stored size ({!record_bytes}), so how many records a
    page holds, and so every RID, follows the record's bytes, not its
    in-memory form. *)

open Rdb_data

type t

val create : ?page_bytes:int -> Buffer_pool.t -> t
(** [page_bytes] defaults to 8192. *)

val file_id : t -> int
val page_count : t -> int
val record_count : t -> int
(** Live (non-deleted) records. *)

val records_per_page : t -> int
(** Average live records per page (>= 1), for Yao-formula
    projections. *)

val record_bytes : Row.t -> int
(** The record's stored size: a 2-byte field count, then per field one
    tag byte plus its payload — 0 bytes for NULL, 8 for an Int or a
    Float, 4 + length for a string.  A slot takes 4 bytes more for its
    directory entry. *)

val insert : t -> Row.t -> Rid.t
(** Append a copy of the row; starts a new page when the current one
    is full.  The caller's array is not kept. *)

val fetch : t -> Cost.t -> Rid.t -> Row.t option
(** Random fetch by RID: the stored row itself, not a copy.  Charges
    one page access and one cpu op.  [None] if deleted or out of
    range. *)

(** {1 Cached fetch} — page-locality fast path.

    Clustered fetches and sorted RID lists hit the same page many
    times in a row; a fetch cache carries the last page's pool handle
    so repeat fetches re-access it via {!Buffer_pool.retouch}:
    charges, metrics, and the fault-injector stream are identical to
    {!fetch}, only the residency probe is skipped.  The handle is
    stamp-checked, so a cache may outlive a step: when another cursor
    has evicted from the page's shard meanwhile, the stale handle falls
    back to the full lookup automatically.  Holders that want a
    residency probe per step invalidate the cache when their step
    ends. *)

type fetch_cache

val fetch_cache : unit -> fetch_cache
(** A fresh (empty) cache. *)

val invalidate_cache : fetch_cache -> unit

val fetch_via : t -> Cost.t -> fetch_cache -> Rid.t -> Row.t option
(** [fetch], resolving the page through [cache] when it still holds
    the RID's page with a valid handle.  Updates the cache to the
    fetched page otherwise. *)

val delete : t -> Cost.t -> Rid.t -> bool
(** Tombstone the record; [false] if absent. *)

val update : t -> Cost.t -> Rid.t -> Row.t -> bool
(** Replace the record with a copy of the row; [false] if absent.  A
    reader that holds the old row keeps the old values. *)

(** {1 Sequential scan} *)

type cursor

val scan : t -> Cost.t -> cursor
(** Page-at-a-time sequential cursor; each new page charges one
    access. *)

val next_row : cursor -> Row.t
(** Step to the next live record in physical order and return its
    stored row, shared with the page, charging one cpu op for it;
    {!end_of_scan} once the heap is exhausted.  A faulted page load
    raises and leaves the cursor where it was, so calling [next_row]
    again retries that page.  {!rid} reads where the cursor stopped. *)

val end_of_scan : Row.t
(** What {!next_row} returns once the heap is exhausted; test for it
    with [==].  It is an array of its own, so no stored row is ever
    physically equal to it. *)

val rid : cursor -> Rid.t
(** The RID of the record {!next_row} last returned. *)

val next : cursor -> (Rid.t * Row.t) option
(** {!next_row}, paired with its record's RID. *)

val iter : t -> Cost.t -> (Rid.t -> Row.t -> unit) -> unit
(** Every live record's stored row, in physical order. *)

val rewrite_corrupt_pages : t -> Cost.t -> int
(** The corrupt-page exit: evict the file (cold probe), read every
    page, and rewrite each one whose checksum verification fails —
    the crc is restamped from the live slot contents and the page
    write charged.  A page's checksum folds each live slot's fields
    (its tag, then its payload; a string by its bytes) and is computed
    and verified only on a cold read under a fault injector.  Returns
    the number of pages rewritten.  This is
    what [REPAIR TABLE] runs before its index logic, giving corrupt
    heap blocks the "until the page is rewritten" recovery that
    {!Fault} documents.  Transient and persistent faults are not
    healed here and propagate to the caller. *)
