(** Exact sets of RIDs, one bit per (page, slot).

    The delivered-RID set of a retrieval cursor: the §4 final stage
    "filtering rows already delivered", the Tscan fallback's skip, and
    the foreground buffer caps all read it, and {!Rdb_exec.Tactic.distinct}
    records every row into it.  Redelivery is decided here, so the set
    must be exact — unlike {!Bitmap}, the hashed filter of [Babb79],
    which admits false positives.

    Each page has a bit string; the page array and the bit strings grow
    on demand, so a set costs a few bytes per page it has seen and
    [add] / [mem] never hash or compare a record. *)

open Rdb_data

type t

val create : unit -> t
(** The empty set. *)

val add : t -> Rid.t -> bool
(** Insert; [true] iff the RID was not yet in the set.  Raises
    [Invalid_argument] on a negative page or slot. *)

val mem : t -> Rid.t -> bool
(** Raises [Invalid_argument] on a negative page or slot. *)

val cardinal : t -> int
(** Distinct RIDs added so far. *)
