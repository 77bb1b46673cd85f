(** Statically-controlled multi-index access baseline [MoHa90].

    The DB2-style comparator the paper discusses in §6: index subset
    and order chosen once from compile-style estimates with a fixed
    keep threshold, every selected scan run to completion — no
    guaranteed-best readjustment, no mid-scan termination, no dynamic
    reordering.  "One ill-predicted alternative execution cost, when
    not corrected dynamically, can put further execution off-balance
    and make it suboptimal." *)

open Rdb_data
open Rdb_engine
open Rdb_exec

type result = {
  rows : Row.t list;
  cost : float;
  trace : Trace.event list;
  used_tscan : bool;
}

val run :
  ?keep_threshold:float ->
  ?limit:int ->
  Table.t ->
  Predicate.t ->
  env:Predicate.env ->
  result
(** [keep_threshold] (default 0.25): an index participates iff its
    estimated range selectivity is at most this fraction of the table.
    With no participating index the plan degenerates to Tscan.
    [limit] stops delivery early; raises [Invalid_argument] if
    negative. *)
