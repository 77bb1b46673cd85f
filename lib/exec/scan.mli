(** Common vocabulary of steppable scans.

    Every strategy advances by small quanta so the competition
    controller can interleave foreground and background work at
    proportional speeds (§3, §7).  One [step] does O(1) work: examine
    one index entry, one heap record, or one RID.  Every strategy is a
    step function, and exactly one generic driver ({!Rdb_exec.Driver})
    settles its steps. *)

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
