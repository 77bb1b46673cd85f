(** Execution trace events.

    The dynamic optimizer's value is in its run-time decisions; traces
    make them observable.  They power the EXPLAIN output of the shell,
    the flow tests that pin the Figure 4 / Figure 6 control flow, and
    the benchmark reports on strategy switching. *)

type event =
  | Feedback_applied of { index : string; raw : float; corrected : float }
      (** the feedback store scaled an inexact descent estimate before
          it was announced ([Estimated] then carries [corrected]);
          cost-only — exact estimates are never corrected *)
  | Estimated of { index : string; estimate : float; exact : bool; nodes : int }
  | Empty_range of { index : string }
      (** §5: retrieval cancelled outright *)
  | Shortcut_estimation of { index : string; estimate : float }
      (** §5: very short range found, estimation stopped early *)
  | Tactic_chosen of { tactic : string; reason : string }
  | Scan_started of { index : string }
  | Scan_discarded of { index : string; reason : string }
      (** §6: two-stage or direct competition fired *)
  | Scan_completed of { index : string; kept : int; scanned : int }
  | List_spilled of { index : string; at : int }
  | Simultaneous_started of { primary : string; secondary : string }
  | Simultaneous_winner of { index : string }
  | Use_tscan of { reason : string }
  | Foreground_stopped of { reason : string }
  | Background_stopped of { reason : string }
  | Final_stage of { rids : int; filtered_delivered : int }
  | Retrieval_done of { rows : int; cost : float }
  | Fault_detected of { site : string; fault : string }
      (** a block access faulted during this retrieval *)
  | Fault_retry of { site : string; attempt : int; penalty : int }
      (** transient fault retried after a cost-charged backoff *)
  | Index_quarantined of { index : string; fault : string }
      (** a faulting index path was discarded, §6-style, and the
          retrieval continued without it *)
  | Fallback_tscan of { reason : string }
      (** foreground switched to the guaranteed-safe sequential scan *)
  | Query_aborted of { fault : string }
      (** the heap itself was unreadable: no degradation possible *)
  | Deadline_exceeded of { spent : float; deadline : float }
      (** the retrieval's charged cost reached its cost deadline and
          the cursor stopped before its next quantum; the rows
          delivered before it stand *)
  | Span_begin of { span : string }
      (** span-style tracing: a named phase (plan, execute, an arm of a
          competition) opened; the matching [Span_end] carries its
          actuals *)
  | Span_end of { span : string; cost : float; rows : int }
      (** the phase closed after charging [cost] units and delivering
          [rows] rows — the per-node "actual" that EXPLAIN ANALYZE
          prints next to the estimates *)
  | Health_transition of { structure : string; from_ : string; to_ : string; reason : string }
      (** a storage structure moved through the self-healing state
          machine (states rendered as strings to keep exec below
          engine-level types) *)
  | Repair_started of { index : string }
      (** an online index rebuild was admitted *)
  | Repair_done of { index : string; entries : int; cost : float; ok : bool }
      (** the rebuild finished: [ok] means the new tree was swapped in *)
  | Crash of { epoch : int; tick : int; lost : int }
      (** the process died at a grant boundary, losing [lost]
          non-terminal submissions (crash–restart model, DESIGN.md
          §15) *)
  | Orphan_discarded of { index : string; side_file : int }
      (** restart recovery found an uncommitted [Building] rebuild
          record and dropped its side tree *)
  | Quarantine_restored of { structure : string; escalations : int }
      (** recovery reconstructed a quarantine from a persisted
          manifest verdict, backoff re-derived from [escalations] *)
  | Rebuild_resubmitted of { index : string }
      (** recovery queued a fresh rebuild for an orphaned or
          quarantined index in the next epoch *)
  | Reissued of { label : string; epoch : int }
      (** a submission lost to a crash was re-admitted from the
          journal in [epoch] *)

type t

val create : unit -> t
val emit : t -> event -> unit
val events : t -> event list
val count : t -> (event -> bool) -> int
val event_to_string : event -> string
