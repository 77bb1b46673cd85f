(** Fscan — fetch-needed index scan with immediate record fetches
    (§4): the classical indexed retrieval.  Delivers in index-key
    order, which makes it the order-providing foreground of the sorted
    tactic (§7).

    A filter can be attached *mid-scan* (the sorted tactic does this
    when the background Jscan completes): from then on candidate RIDs
    failing the filter are rejected before the record fetch — the
    "extra Jscan-supported filtering [that] may eliminate a large
    number of record fetches". *)

open Rdb_engine
open Rdb_rid
open Rdb_storage

type t

val create : Table.t -> Cost.t -> Scan.candidate -> restriction:Predicate.t -> t

val set_filter : t -> Filter.t -> unit

val step : t -> Scan.step

val drop_cache : t -> unit
(** Invalidate the page-handle cache the record fetches share
    ({!Rdb_storage.Heap_file.fetch_via}).  Its handles are
    stamp-checked, so a cache may safely outlive a step; a caller drops
    it to keep its buffer-pool lookups per step. *)

val fetched : t -> int
(** Record fetches performed. *)

val rejected_after_fetch : t -> int
(** Fetches wasted on rows failing the full restriction — the fast-
    first tactic's "only substantial overhead". *)

val saved_by_filter : t -> int
(** Fetches avoided thanks to the attached filter. *)
