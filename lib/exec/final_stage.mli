(** Final retrieval stage (Figure 4's "Fin").

    Executed upon background completion as the alternative to
    foreground delivery: fetch the sorted RID list — sequential-
    friendly, several records per page cost one page access — evaluate
    the full restriction (hashed filters upstream may have admitted
    false positives), and skip rows the foreground already delivered. *)

open Rdb_data
open Rdb_engine
open Rdb_storage

type t

val create :
  Table.t ->
  Cost.t ->
  rids:Rid.t array ->
  restriction:Predicate.t ->
  exclude:(Rid.t -> bool) ->
  t
(** [rids] must be sorted; [exclude rid] is true for already-delivered
    records. *)

val step : t -> Scan.step

val drop_cache : t -> unit
(** Invalidate the page-handle fetch cache.  A retrieval's stage-2
    step calls this at the end of every step, when control leaves its
    quantum. *)

val skipped_delivered : t -> int
