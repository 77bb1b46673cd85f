(** Uscan — union scan over the disjuncts of an OR restriction.

    The paper lists "covering ORs ... of table-wide Boolean
    expressions" as a rich source for extending the tactics (§7,
    Other Tactics); this module implements the natural union dual of
    Jscan: each OR disjunct is served by one index range scan, the
    accepted RIDs accumulate into a single union list, and the final
    stage fetches the deduplicated list.

    Unlike Jscan, a union cannot discard one unproductive scan — every
    disjunct's rows are owed — so the competition is all-or-nothing:
    when the projected union retrieval plus the remaining scan work
    approaches the guaranteed best (Tscan), the whole arrangement is
    abandoned in favour of the sequential scan. *)

open Rdb_data
open Rdb_engine
open Rdb_storage

type outcome = Jscan.outcome =
  | Rid_list of Rid.t array  (** sorted, deduplicated union *)
  | Recommend_tscan of string

type t

val create :
  Table.t -> Cost.t -> Jscan.config -> Trace.t -> disjuncts:Scan.candidate list -> t
(** One candidate per OR disjunct; each candidate's [residual] is the
    part of its own disjunct the range does not guarantee (evaluated
    with [eval_maybe] during the scan).  The union reads the Jscan
    knobs it shares: [switch_ratio], its abandon threshold against the
    guaranteed best, and [memory_budget].  The abandonment check runs
    every 32 scanned entries of a scan. *)

val step : t -> [ `Working | `Finished of outcome | `Faulted of Fault.failure ]
(** [`Faulted] leaves positions unchanged: step again to retry a
    transient fault, or call {!abandon}. *)

val abandon : t -> Fault.failure -> unit
(** Non-retriable fault: a union owes every disjunct's rows, so the
    whole arrangement is dropped in favour of [Recommend_tscan]. *)

val outcome : t -> outcome option
(** [None] until the union finishes (or is abandoned). *)

val run : t -> outcome
(** Drain {!step} through the shared driver under the
    [retry-transient ⇒ abandon] {!Tactic.Policy} ladder: transient
    faults retry in place, anything else abandons to
    [Recommend_tscan]. *)
