(** Deterministic observability registry: named counters, gauges, and
    fixed-bucket histograms.

    Everything is measured in cost units and call counts — never
    wall-clock time — so equal seeds produce byte-identical dumps, and
    a dump can be golden-tested or diffed across runs.

    Metrics are {e observation-only} by contract: recording into a
    registry must never change result sets or charged costs (pinned by
    the qcheck suite in [test/test_metrics.ml]).  Instrumented
    subsystems therefore take a [t option] and skip all work on
    [None]. *)

type t

val create : unit -> t

val labeled : string -> string -> string
(** [labeled name label] is ["name{label}"] — the convention for
    per-file / per-tactic series of one logical metric. *)

(** {1 Counters} *)

type counter

val counter : t -> string -> counter
(** Find or register.  Raises [Invalid_argument] if [name] is already
    registered with another kind. *)

val incr : counter -> unit
val add : counter -> int -> unit
val counter_value : counter -> int

(** {1 Gauges} *)

type gauge

val gauge : t -> string -> gauge
val set : gauge -> float -> unit
val gauge_value : gauge -> float

(** {1 Histograms} *)

type histogram

val histogram : ?buckets:float array -> t -> string -> histogram
(** [buckets] are strictly increasing upper bucket bounds; an extra
    overflow bucket is added.  The default is the power-of-four ladder
    1, 4, ..., 65536 over cost units, which spans sub-page-read costs up
    to full scans of the biggest bench tables.  Raises
    [Invalid_argument] on empty or non-increasing bounds, or on a
    name registered with another kind.  [buckets] is ignored when the
    histogram already exists. *)

val observe : histogram -> float -> unit
val histogram_count : histogram -> int
val histogram_sum : histogram -> float

val histogram_counts : histogram -> int array
(** Per-bucket counts (a copy); length = bounds + 1 (overflow last). *)

val histogram_bounds : histogram -> float array

(** {1 Snapshots} — deterministic, name-sorted views *)

type value =
  | Counter of int
  | Gauge of float
  | Histogram of { bounds : float array; counts : int array; sum : float; count : int }

val snapshot : t -> (string * value) list
(** Sorted by name: iteration order never depends on hash-table
    internals. *)

val to_string : t -> string
(** One ["name = value"] line per metric, name-sorted. *)

val to_json : t -> Json.t

val is_empty : t -> bool
val reset : t -> unit
