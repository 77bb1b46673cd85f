(** Jscan — joint scan of fetch-needed indexes (§6, Figure 6).

    Scans the candidate indexes in the initial stage's order (roughly
    ascending selectivity).  Each scan builds a RID list, filtered
    through the previous completed list's filter, so each completed
    list is the intersection of all completed scans.  Two competition
    mechanisms terminate unproductive scans:

    - {e two-stage}: the projected cost of retrieving by the final RID
      list (extrapolated from the current list and scan progress, via
      Yao's formula) approaches — reaches [switch_ratio] (default
      0.95) of — the {e guaranteed best} cost g, where g is the
      cheaper of a sequential scan and retrieval by the last completed
      list;
    - {e direct}: the scan's own cost exceeds [scan_cost_cap] (default
      0.25) of g — the case where filters reject almost everything and
      the scan itself dominates.

    Optionally, two adjacent indexes are scanned simultaneously at
    equal speed within the memory buffer; the first range to exhaust
    wins, delivers the filter, and the loser's partial list is
    refiltered in memory and continues (§6's dynamic reordering).

    The outcome is either a final sorted RID list or a recommendation
    to run Tscan.  Accepted RIDs are continuously exposed for
    *borrowing* by a fast-first foreground (§7). *)

open Rdb_data
open Rdb_engine
open Rdb_storage

type config = {
  switch_ratio : float;
  scan_cost_cap : float;
  check_every : int;  (** competition-check cadence, in entries *)
  memory_budget : int;  (** max buffered RIDs per list before spilling *)
  simultaneous : bool;  (** enable adjacent-index simultaneous scans *)
  dynamic : bool;  (** false disables mid-scan competition entirely
                       (the statically-controlled baseline [MoHa90]) *)
  filter_against : float option;
      (** the Jscan's role.  [None] (the default): its output drives
          the retrieval, so its initial guaranteed best g is the
          table's Tscan cost and a list dearer than that becomes a
          Tscan recommendation.  [Some g]: it builds a filter for a
          foreground costing [g] (§7 sorted tactic), competes against
          that, and delivers any completed list, never a Tscan
          recommendation *)
}

val default_config : config

type outcome =
  | Rid_list of Rid.t array  (** sorted, deduplicated *)
  | Recommend_tscan of string  (** with the reason *)

type t

val create :
  Table.t ->
  Cost.t ->
  config ->
  Trace.t ->
  candidates:Scan.candidate list ->
  t
(** Candidate residuals are evaluated on synthetic key rows with
    [eval_maybe] during the scans; the caller must still evaluate the
    full restriction on fetched rows. *)

val step : t -> [ `Working | `Finished of outcome | `Faulted of Fault.failure ]
(** Idempotent once finished.  [`Faulted] reports a block-access fault
    caught inside the quantum with the scan positions unchanged: the
    caller either steps again (retry, for transient faults) or calls
    {!quarantine} (drop the faulting party, for persistent ones). *)

val quarantine : t -> Fault.failure -> unit
(** Discard whichever party the last [`Faulted] step blamed — a
    running scan (traced as {!Trace.Index_quarantined} plus the usual
    §6 [Scan_discarded]) or the completed list (the final decision then
    degrades to [Recommend_tscan]).  The competition continues with
    the remaining candidates.  No-op if no fault is pending. *)

val outcome : t -> outcome option
(** [None] until the competition settles. *)

val run : t -> outcome
(** Drain {!step} through the shared driver under the
    [retry-transient ⇒ quarantine] {!Tactic.Policy} ladder: transient
    faults retry in place, anything else quarantines the blamed party
    and the competition continues. *)

val borrow : t -> Rid.t option
(** Next not-yet-borrowed accepted RID, if any (fast-first tactic). *)

val guaranteed_best : t -> float
val completed_scans : t -> int
val discarded_scans : t -> int
