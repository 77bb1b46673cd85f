(** Stored equi-width column histograms — the §5 strawman.

    The paper dismisses the "widely known estimation method based on
    storing the column distribution histograms" for three reasons:

    + it "fully depends on costly data rescans for histogram
      maintenance" — building one reads the whole table, and it goes
      stale as data changes;
    + it "can only be used for range-producing restrictions";
    + "even for range estimates, histograms fail to detect small
      ranges falling below granularity, though the smallest ranges
      must be detected and scanned first".

    This module implements that method honestly so the benchmark
    harness can measure all three drawbacks against the B-tree
    descent estimator (see `bench -e histogram`). *)

open Rdb_storage

type t

val build : ?buckets:int -> Table.t -> column:string -> Cost.t -> t
(** Full-scan build ([buckets] defaults to 64): one pass over the heap
    is charged to the meter.  Non-numeric and NULL values are skipped.
    Raises [Invalid_argument] on an unknown column. *)

val built_at_rows : t -> int
(** The table's row count at build time (staleness witness). *)

val build_cost : t -> float
(** Pages read to build it. *)

val estimate_range : ?feedback:Feedback.t -> t -> lo:float option -> hi:float option -> float
(** Estimated number of rows with [lo <= v <= hi] (either bound
    optional), with linear interpolation inside partially covered
    buckets.  Reflects the data as of build time — unless [feedback]
    is supplied, in which case the raw estimate is scaled by the
    factor learned from {!observe_range} for this (column, bounds)
    cell (DESIGN.md §13): feedback is the online patch for the
    method's staleness drawback. *)

val observe_range :
  t -> Feedback.t -> rate:float -> lo:float option -> hi:float option -> actual:float -> unit
(** Fold the observed actual cardinality of the range back into the
    feedback store (keyed under ["histogram:<column>"], never aliasing
    index cells), so later {!estimate_range} calls with [feedback]
    converge toward it. *)

val estimate_predicate : ?feedback:Feedback.t -> t -> Predicate.t -> float option
(** Estimate for a bound predicate on the histogram's column.  [None]
    when the predicate is not range-producing (LIKE, IS NULL, ...) —
    the method's second drawback.  [feedback] as in
    {!estimate_range}. *)

val pp : Format.formatter -> t -> unit
