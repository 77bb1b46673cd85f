(** Common vocabulary of steppable scans.

    Every strategy advances by small quanta so the competition
    controller can interleave foreground and background work at
    proportional speeds (§3, §7).  One [step] does O(1) work: examine
    one index entry, one heap record, or one RID. *)

open Rdb_btree
open Rdb_data
open Rdb_engine

type step =
  | Deliver of Rid.t * Row.t  (** a qualifying row *)
  | Continue  (** worked, nothing to deliver yet *)
  | Done  (** exhausted *)
  | Failed of Rdb_storage.Fault.failure
      (** the quantum's block access faulted; the scan's position is
          unchanged, so stepping again retries the same access (the
          degradation policies in [Rdb_core.Retrieval] decide whether
          to retry, quarantine, fall back, or abort) *)

type candidate = {
  idx : Table.index;
  ranges : Btree.range list;
      (** disjoint ranges in key order (one per IN-list value, else a
          single range) *)
  residual : Predicate.t;  (** restriction part the ranges don't cover *)
  est : float;  (** estimated in-range entries *)
  est_exact : bool;
}

val synthetic_row : Table.t -> Table.index -> Btree.key -> Row.t
(** A schema-width row with the index key columns filled in and NULL
    elsewhere (for delivery from an index alone). *)

val compile_key : Table.t -> Table.index -> Predicate.t -> Predicate.compiled_key
(** A restriction compiled for the index's keys: testing a key gives
    what evaluating the same restriction on its {!synthetic_row} gives,
    without building the row.  Raises as {!Predicate.compile}. *)

(** {1 Batch-quantum cursors}

    The uniform execution interface: every strategy exposes a
    {!cursor}, and exactly one generic driver ({!Rdb_exec.Driver})
    pumps it.  A batch runs whole steps until the charged cost reaches
    [budget] (checked {e before} each step, so the first step always
    runs and a single expensive step may overshoot), then yields the
    rows it delivered.  [budget = 0.] therefore reproduces the
    one-step-per-quantum protocol exactly — and, since charged cost
    never decreases, such a batch ends after its one step without
    reading the cost clock at all; larger budgets only
    coarsen {e when} control returns, never what is delivered, in
    what order, or what is charged — batching amortizes per-step
    dispatch and buffer-pool residency probes, nothing else.  A batch
    does not report its cost: callers that need it read their meters. *)

type status =
  | More  (** budget (or step cap) reached; pump again *)
  | Exhausted  (** the scan completed during this batch *)
  | Faulted of Rdb_storage.Fault.failure
      (** the batch's last step faulted with positions unchanged;
          rows delivered by earlier steps of the batch are still in
          [rows] and must be consumed before any fallback runs *)

type batch = {
  rows : (Rid.t * Row.t) list;  (** in delivery order *)
  steps : int;  (** steps taken, including a final faulted one *)
  status : status;
}

type cursor = { next_batch : budget:float -> batch }

val cursor_of_step :
  cost:(unit -> float) ->
  ?max_steps:int ->
  ?on_yield:(unit -> unit) ->
  (unit -> step) ->
  cursor
(** Lift a step function into a cursor.  [cost ()] reads the charged
    total the budget is clocked against — once at the start of a batch
    and once before each later step, and never when [budget <= 0.];
    [max_steps] (default
    unlimited) additionally caps steps per batch (raises
    [Invalid_argument] if < 1); [on_yield] runs on every batch
    boundary — the hook cursors use to invalidate page-handle caches
    whose validity window is one batch. *)
