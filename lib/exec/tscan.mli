(** Tscan — full sequential table scan (§4).

    The classical fallback: reads every data page once, tests the full
    restriction on every record, delivers immediately.  The compiled
    restriction ({!Predicate.test}) tests the heap's stored row where
    it lies, and a qualifying record is delivered as that same shared
    row; an examined record is charged the same whether or not it
    qualifies.  Its cost
    is flat and certain, which is exactly why it serves as the initial
    "guaranteed best" in Jscan's competition. *)

open Rdb_engine
open Rdb_storage

type t

val create : Table.t -> Cost.t -> Predicate.t -> t
(** The restriction must be bound. *)

val step : t -> Scan.step

val examined : t -> int
(** Records looked at so far. *)
