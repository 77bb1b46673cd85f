(** Hybrid RID-list accumulator (paper §6, "engineering around the
    L-shape distribution").

    The RID-list size quantity is split into monotonically increasing
    regions:

    - a zero-length list shortcuts the whole retrieval;
    - up to {!inline_capacity} RIDs live in a statically-allocated
      buffer — no allocation, no memory-manager overhead;
    - bigger lists move to an allocated in-memory buffer bounded by the
      memory budget;
    - bigger still, the list flows into a spill (temporary table) and a
      hashed bitmap of "as small as necessary" size takes over filter
      duty.

    Because most Jscan lists are tiny (that is the L-shape), the cheap
    tiers carry almost all traffic. *)

open Rdb_data
open Rdb_storage

type tier = Inline | Buffered | Spilled

type t

val inline_capacity : int
(** 20, as in the paper. *)

val create : ?memory_budget:int -> Buffer_pool.t -> Cost.t -> t
(** [memory_budget] is the max buffered RIDs before spilling (default
    4096); once spilled, a hashed bitmap of [16 * memory_budget] bits
    answers membership probes. *)

val add : t -> Rid.t -> unit
val count : t -> int
val tier : t -> tier

val filter : t -> Filter.t
(** Seals, then: exact sorted filter while in-memory; hashed bitmap if
    spilled. *)

val to_sorted_array : t -> Rid.t array
(** Seals, reads back any spilled blocks, sorts and dedups. *)

val iter_unordered : t -> (Rid.t -> unit) -> unit
(** Seals, then iterates in append order (spill reads charged). *)

val destroy : t -> unit
(** Release spill blocks from the pool. *)
