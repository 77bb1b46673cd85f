(** The initial retrieval stage (§5).

    Arranges the available useful indexes into single or combined scan
    strategies: classifies each index (self-sufficient / fetch-needed /
    order-needed), estimates range cardinalities by descent-to-split,
    orders Jscan candidates by ascending estimate, and applies the
    paper's estimation-cost reductions:

    - indexes are estimated in the order the *previous* retrieval found
      best (stored on the table);
    - when a very short range is found, estimation of the remaining
      indexes stops (their estimate defaults, pessimistically, to the
      index cardinality);
    - an exactly-empty range cancels the whole retrieval: "end of
      data" at once. *)

open Rdb_engine
open Rdb_exec
open Rdb_storage

type classified = {
  jscan_candidates : Scan.candidate list;  (** ascending estimate *)
  self_sufficient : Scan.candidate list;
      (** covering candidates: the bounded ones by ascending estimate,
          then the unbounded covering indexes (full-range scans) in
          catalog order *)
  order_index : Scan.candidate option;  (** best order-providing index *)
  union_candidates : Scan.candidate list;
      (** one bounded candidate per OR disjunct when the whole
          restriction is a covered OR (the §7 union extension); empty
          otherwise.  Exactly-empty disjuncts are dropped. *)
}

type decision =
  | No_rows of string  (** empty range: cancel all stages *)
  | Arranged of classified

val run :
  Table.t ->
  Cost.t ->
  Trace.t ->
  feedback_rate:float ->
  restriction:Predicate.t ->
  needed_columns:string list ->
  order_by:string list ->
  decision
(** [restriction] must be bound.  [needed_columns] is every column the
    query must produce or examine (for self-sufficiency).  An estimate
    at or below 16 rows stops further estimation.  Updates the table's
    preferred index order as a side effect.

    When [feedback_rate > 0.] every {i inexact} descent estimate is
    scaled by the table's learned {!Feedback} factor for that
    (index, ranges) cell before it is announced — a
    [Trace.Feedback_applied] event precedes the [Estimated] event and
    the candidate carries the corrected value, so competition
    thresholds and switch points consume it.  Exact estimates are
    never corrected (correction is cost-only by construction).  At
    rate 0 (the default config) the path is byte-identical to the
    uncorrected one. *)

val note_health : Table.t -> Trace.t -> Health.transition option -> unit
(** Forward a health transition, if any, through
    {!Rdb_engine.Table.note_transition} to the pool metrics and emit it
    as a [Trace.Health_transition] event — the one place a transition
    becomes a trace event, for planning, retrieval and repair alike. *)
