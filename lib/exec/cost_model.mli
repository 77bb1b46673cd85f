(** Cost projections used by the competition criteria.

    All figures are in weighted cost units ({!Rdb_storage.Cost.total}
    with default weights), assuming a cold cache — the *guaranteed*
    cost of an alternative must not depend on hoped-for buffer hits. *)

open Rdb_engine

val tscan_cost : Table.t -> float
(** Full sequential scan: every data page read once plus per-record
    CPU. *)

val rid_fetch_cost : Table.t -> k:int -> float
(** Fetching [k] distinct records via a *sorted* RID list: expected
    distinct pages by Yao's formula, plus CPU. *)

val index_scan_cost : Table.index -> entries:float -> float
(** Scanning [entries] consecutive index entries: leaf loads at the
    tree's average fill plus the descent, plus per-entry CPU. *)

val key_order_fetch_cost : Table.t -> Table.index -> entries:float -> float
(** Cost of fetching [entries] records in *index-key order* (what an
    Fscan does): interpolates between the clustered case (key order =
    physical order, one page per page-full of records) and the
    unclustered case (Yao), by the index's measured clustering factor
    (§3(b)). *)
