module Dynarray = Rdb_util.Dynarray

type event =
  | Feedback_applied of { index : string; raw : float; corrected : float }
  | Estimated of { index : string; estimate : float; exact : bool; nodes : int }
  | Empty_range of { index : string }
  | Shortcut_estimation of { index : string; estimate : float }
  | Tactic_chosen of { tactic : string; reason : string }
  | Scan_started of { index : string }
  | Scan_discarded of { index : string; reason : string }
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
  | Fault_retry of { site : string; attempt : int; penalty : int }
  | Index_quarantined of { index : string; fault : string }
  | Fallback_tscan of { reason : string }
  | Query_aborted of { fault : string }
  | Deadline_exceeded of { spent : float; deadline : float }
  | Span_begin of { span : string }
      (** span-style tracing: a named phase (plan, execute, an arm of a
          competition) opened; the matching [Span_end] carries its
          actuals *)
  | Span_end of { span : string; cost : float; rows : int }
      (** the phase closed after charging [cost] units and delivering
          [rows] rows — the per-node "actual" that EXPLAIN ANALYZE
          prints next to the estimates *)
  | Health_transition of { structure : string; from_ : string; to_ : string; reason : string }
      (** a storage structure moved through the health-state machine *)
  | Repair_started of { index : string }
  | Repair_done of { index : string; entries : int; cost : float; ok : bool }
  | Crash of { epoch : int; tick : int; lost : int }
  | Orphan_discarded of { index : string; side_file : int }
  | Quarantine_restored of { structure : string; escalations : int }
  | Rebuild_resubmitted of { index : string }
  | Reissued of { label : string; epoch : int }

type t = event Dynarray.t

let create () = Dynarray.create ()
let emit t e = Dynarray.push t e
let events t = Dynarray.to_list t

let count t pred = Dynarray.fold_left (fun acc e -> if pred e then acc + 1 else acc) 0 t

let event_to_string = function
  | Feedback_applied { index; raw; corrected } ->
      Printf.sprintf "feedback on %s: raw estimate ~%.0f corrected to ~%.0f (%.2fx)" index
        raw corrected
        (corrected /. Float.max 1e-9 raw)
  | Estimated { index; estimate; exact; nodes } ->
      Printf.sprintf "estimate %s ~ %.0f rids%s (%d node reads)" index estimate
        (if exact then " (exact)" else "")
        nodes
  | Empty_range { index } -> Printf.sprintf "empty range on %s: end-of-data at once" index
  | Shortcut_estimation { index; estimate } ->
      Printf.sprintf "short range on %s (~%.0f rids): estimation stopped early" index
        estimate
  | Tactic_chosen { tactic; reason } -> Printf.sprintf "tactic %s (%s)" tactic reason
  | Scan_started { index } -> Printf.sprintf "scan %s started" index
  | Scan_discarded { index; reason } -> Printf.sprintf "scan %s DISCARDED: %s" index reason
  | Scan_completed { index; kept; scanned } ->
      Printf.sprintf "scan %s completed: %d/%d rids kept" index kept scanned
  | List_spilled { index; at } -> Printf.sprintf "rid list of %s spilled at %d rids" index at
  | Simultaneous_started { primary; secondary } ->
      Printf.sprintf "simultaneous scan of %s and %s" primary secondary
  | Simultaneous_winner { index } -> Printf.sprintf "simultaneous winner: %s" index
  | Use_tscan { reason } -> Printf.sprintf "switch to Tscan: %s" reason
  | Foreground_stopped { reason } -> Printf.sprintf "foreground stopped: %s" reason
  | Background_stopped { reason } -> Printf.sprintf "background stopped: %s" reason
  | Final_stage { rids; filtered_delivered } ->
      Printf.sprintf "final stage: %d rids (%d already delivered skipped)" rids
        filtered_delivered
  | Retrieval_done { rows; cost } ->
      Printf.sprintf "retrieval done: %d rows, cost %.2f" rows cost
  | Fault_detected { site; fault } -> Printf.sprintf "FAULT at %s: %s" site fault
  | Fault_retry { site; attempt; penalty } ->
      Printf.sprintf "retry %d at %s (backoff penalty %d reads)" attempt site penalty
  | Index_quarantined { index; fault } ->
      Printf.sprintf "index %s QUARANTINED: %s" index fault
  | Fallback_tscan { reason } -> Printf.sprintf "fallback to Tscan: %s" reason
  | Query_aborted { fault } -> Printf.sprintf "query ABORTED: %s" fault
  | Deadline_exceeded { spent; deadline } ->
      Printf.sprintf "cost deadline exceeded: %.2f spent of %.2f allowed" spent deadline
  | Span_begin { span } -> Printf.sprintf "span %s begin" span
  | Span_end { span; cost; rows } ->
      Printf.sprintf "span %s end (cost %.2f, rows %d)" span cost rows
  | Health_transition { structure; from_; to_; reason } ->
      Printf.sprintf "health %s: %s -> %s (%s)" structure from_ to_ reason
  | Repair_started { index } -> Printf.sprintf "repair of %s started" index
  | Repair_done { index; entries; cost; ok } ->
      Printf.sprintf "repair of %s %s: %d entries, cost %.2f" index
        (if ok then "done" else "FAILED")
        entries cost
  | Crash { epoch; tick; lost } ->
      Printf.sprintf "CRASH in epoch %d at grant %d (%d submissions lost)" epoch tick
        lost
  | Orphan_discarded { index; side_file } ->
      Printf.sprintf "recovery: discarded orphan side tree of %s (file %d)" index
        side_file
  | Quarantine_restored { structure; escalations } ->
      Printf.sprintf "recovery: restored quarantine of %s (escalations %d)" structure
        escalations
  | Rebuild_resubmitted { index } ->
      Printf.sprintf "recovery: resubmitted rebuild of %s" index
  | Reissued { label; epoch } ->
      Printf.sprintf "recovery: reissued %s in epoch %d" label epoch
