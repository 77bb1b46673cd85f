(** Sscan — self-sufficient (covering) index scan (§4).

    When the index key contains every column the query touches, the
    index scan alone selects and delivers the result: no record
    fetches ever.  The restriction is tested on the key itself
    ({!Scan.compile_key}); a qualifying entry is delivered as a
    synthetic row (key columns filled, the rest NULL), in index-key
    order. *)

open Rdb_engine
open Rdb_storage

type t

val create : Table.t -> Cost.t -> Scan.candidate -> restriction:Predicate.t -> t
(** [restriction] is the full bound table restriction; it must
    reference only columns of the candidate index. *)

val step : t -> Scan.step

val delivered : t -> int
