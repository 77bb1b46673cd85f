(** Dynamic single-table retrieval (§4, §7; Figure 4).

    The public face of the dynamic optimizer.  A retrieval is opened
    with a (possibly parameterized) restriction, an optimization-goal
    context, and an optional requested order; the engine then:

    + binds host variables and runs the §5 initial stage (estimation,
      candidate arrangement, empty-range cancellation);
    + picks a tactic — static Tscan/Sscan/Fscan where the choice is
      clear, otherwise one of the §7 competition tactics
      (background-only, fast-first, sorted, index-only);
    + interleaves the foreground and background processes at
      cost-proportional speeds, switching strategies when competition
      criteria fire;
    + delivers rows through a cursor that the caller may abandon at
      any point (early termination is what makes fast-first real).

    Every decision is recorded in the {!Rdb_exec.Trace}. *)

open Rdb_data
open Rdb_engine
open Rdb_exec

type config = {
  jscan : Jscan.config;
  speed_ratio : float;
      (** foreground:background cost-speed ratio (1.0 = equal, the
          optimum under hyperbolic cost distributions [Ant91B]) *)
  bgr_enabled : bool;
      (** [false] drops the {e competitive} background-refinement arms:
          the index-only tactic degrades to its foreground Sscan and
          the sorted tactic to its foreground Fscan.  Tactics whose
          background is the sole row source (background-only, union,
          fast-first) are unaffected — under pressure the scheduler
          uses this as the first graceful-degradation rung while
          fast-first LIMIT probes keep their refinement.  Like every
          config knob it steers cost, never results: rows and their
          order are invariant.  Default [true] *)
  deadline : float option;
      (** the retrieval's one cost bound, in the units every meter
          charges: once its total charged cost (planning included)
          reaches the deadline, the cursor stops before its next
          quantum — never mid-step, never an exception.  The first
          check to see it records [Trace.Deadline_exceeded], and
          {!close} reports {!constructor-Timed_out} with the rows
          delivered so far standing.  {!grant} checks it after the
          caller's [stop].  [None] — the default — never stops *)
  feedback_rate : float;
      (** learning rate for the table's cardinality-feedback store
          (DESIGN.md §13; 0..1).  At the default [0.] the loop is off:
          no corrections, no observations, no [Feedback_applied]
          events — byte-identical traces and metrics to a build
          without it.  At positive rates the initial stage scales
          inexact descent estimates by the factors learned from
          completed scans, and {!close} folds each completed scan's
          actual cardinality back into {!Rdb_engine.Feedback}.  Like
          every config knob it steers cost, never results: rows and
          their order are invariant under any rate *)
  metrics : Rdb_util.Metrics.t option;
      (** observation-only registry: tactic choices, per-arm costs,
          switch points, and estimate-vs-actual error are recorded at
          {!close}; [None] — the default — records nothing and changes
          nothing *)
}
(** Four competition and policy values are fixed:
    - the foreground delivered-RID buffer holds 512 RIDs; overflow
      stops the foreground (fast-first) or the background
      (index-only);
    - the fast-first foreground stops once its wasted-fetch cost
      exceeds half the guaranteed best;
    - the goal is total time unless inferred from the controlling node
      or requested ({!Goal.resolve});
    - 8 consecutive transient-fault retries per access are tolerated
      before the fault is treated as persistent (quarantine /
      fallback). *)

val default_config : config

type request = {
  restriction : Predicate.t;
  env : Predicate.env;
  explicit_goal : Goal.t option;  (** OPTIMIZE FOR ... *)
  context : Goal.controlling_node option;  (** for goal inference *)
  order_by : string list;
  projection : string list option;  (** [None] = all columns *)
}

val request :
  ?env:Predicate.env ->
  ?explicit_goal:Goal.t ->
  ?context:Goal.controlling_node ->
  ?order_by:string list ->
  ?projection:string list ->
  Predicate.t ->
  request

type tactic_kind =
  | Static_tscan
  | Static_sscan
  | Static_fscan
  | Background_only
  | Fast_first_tactic
  | Sorted_tactic
  | Index_only_tactic
  | Union_tactic
      (** covered OR: one index scan per disjunct, union RID list —
          the §7 "covering ORs" extension *)
  | Cancelled  (** §5 empty-range cancellation *)

val tactic_to_string : tactic_kind -> string

type status =
  | Completed  (** normal exhaustion or caller close *)
  | Timed_out of { spent : float; deadline : float }
      (** charged cost reached [config.deadline]; delivered rows
          stand *)
  | Aborted of { fault : string }
      (** the heap itself is unreadable — no degradation path left *)

val status_to_string : status -> string

type summary = {
  rows_delivered : int;
  total_cost : float;
  cost_to_first_row : float option;
  tactic : tactic_kind;
  goal : Goal.t;
  goal_provenance : string;
  policy : string;
      (** the fault-policy ladder this retrieval armed, as rung names
          joined with [" ⇒ "] (e.g. ["retry(8) ⇒ quarantine ⇒
          abort-heap ⇒ tscan-fallback"]) — EXPLAIN's [policy:] line.
          Always equal to [policy_description tactic]. *)
  status : status;
  trace : Trace.event list;
}

val policy_description : tactic_kind -> string
(** The degradation ladder a given tactic kind arms (DESIGN.md §17),
    without opening a cursor: bounded transient retry first, then —
    per tactic — background quarantine, the structured heap abort,
    and the Tscan fallback for foreground index paths.  It reads the
    same per-tactic rung list as the armed {!Rdb_exec.Tactic.Policy}
    stack (the oracle suite's coverage test compares the two). *)

type cursor

val open_ : ?config:config -> Table.t -> request -> cursor
(** Plan the retrieval and return its cursor.  Raises
    [Invalid_argument] naming the column when the restriction, the
    ORDER BY or the projection names a column the table lacks, and
    when [config.deadline] is NaN. *)

val fetch : cursor -> Row.t option
(** Next qualifying row; [None] when exhausted.  Rows arrive in
    requested order if [order_by] was given. *)

val drain_pairs : cursor -> (Rid.t * Row.t) list
(** Pump the cursor to exhaustion and return every remaining
    qualifying row in delivery order (the SQL executor's materializing
    path; Halloween-safe by construction — the scan completes before
    the caller mutates anything). *)

val spent : cursor -> float
(** Total cost charged to this retrieval so far (foreground +
    background + estimation meters) — the scheduler's fairness
    currency. *)

val grant :
  cursor ->
  budget:float ->
  max_steps:int ->
  stop:(unit -> bool) ->
  on_row:(Row.t -> unit) ->
  [ `Exhausted | `Timed_out | `Paused ]
(** One scheduler grant: advance the cursor one quantum — one step of
    its composed tactic — at a time until [stop ()] holds, the
    cursor's [config.deadline] is reached, [budget] worth of cost has
    been charged since entry, or [max_steps] quanta ran (all checked
    before each quantum, in that order, against one reading of the
    cursor's cost clock — a spent budget grants nothing).  Delivered
    rows go to [on_row].  Returns [`Exhausted] if the retrieval ran
    out during the grant, else [`Timed_out] if the deadline stopped it
    (a [stop] that holds first wins), else [`Paused].  This is
    {!Rdb_exec.Driver.clocked_loop} — the one grant loop the session
    scheduler uses for queries and repairs alike. *)

val rows_delivered : cursor -> int
val tactic : cursor -> tactic_kind

val close : cursor -> summary
(** May be called at any time (early termination).  Idempotent. *)

val run : ?config:config -> ?limit:int -> Table.t -> request -> Row.t list * summary
(** Convenience: open, fetch up to [limit] (all if omitted), close.
    Raises [Invalid_argument] on a negative [limit], and as {!open_}
    does. *)
