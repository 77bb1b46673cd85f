(** Multi-query session scheduler over one shared buffer pool.

    Rdb/VMS ran its dynamic optimizer under concurrent sessions: many
    queries competing for one page buffer, each internally interleaving
    foreground and background scans (§3, §7).  This module reproduces
    that pressure deterministically: a cooperative scheduler drives N
    concurrent {!Retrieval} cursors against one shared
    {!Rdb_engine.Database} pool by round-robin {e cost quanta}.

    Guarantees:

    + {b Admission control.}  At most [max_inflight] queries hold open
      cursors; the rest wait in a queue ordered by (declared cost
      quota, arrival) — a query declaring a small [quota] at
      {!submit} may jump an undeclared one, ties broken FIFO.  Plans are chosen at
      admission time, one query at a time, so planning itself is never
      interleaved.
    + {b Fairness.}  Each grant gives one session up to [quantum] cost
      units of work (measured by its own meters).  The next grant goes
      to the active session with the least charged cost (deterministic
      tie-break: lowest id) — but any session passed over for
      {!starvation_bound} consecutive grants is scheduled next
      unconditionally, so the wait of a runnable session is bounded.
    + {b Isolation.}  Competition state (guaranteed best, quarantine,
      fallback, retry counters) lives inside each cursor; one query's
      degradation never perturbs another's plan choice.  Queries
      interact only through the shared buffer pool — i.e. through
      {e cost}, never through {e results}.
    + {b Overload protection} (DESIGN.md §12).  Submissions may carry a
      cost {e deadline}, the cursor's own bound
      ([Retrieval.config.deadline]): a session that reaches it stops
      before its next step and ends that grant with a structured
      {!outcome.Timed_out} — partial rows and charged cost stand, no
      exception, no absorbing state.  The waiting queue is bounded by
      [max_queue]: excess arrivals are {e shed} ({!shed_policy}) with a
      structured {!outcome.Shed}, never opening a cursor.  When the
      queue behind an admission reaches [pressure_threshold], the new
      query is {e degraded} before anyone is shed: its competitive
      background-refinement arms are dropped
      ([Retrieval.bgr_enabled = false]) while fast-first LIMIT probes
      keep theirs.  Shedding and degradation change {e which} queries
      run and at what cost — never the results of queries that run.
    + {b Determinism.}  No wall clock, no OS scheduler: two runs with
      equal seeds and configs produce byte-identical reports.

    Observability: per-session counters (quanta, charged cost, queue
    wait, max scheduling gap, degradations, outcome) and pool-wide
    counters (grants, physical/logical reads, hit rate, exact
    served/shed/timed-out accounting) in the {!report}, plus a stable
    text rendering ({!report_to_string}) that serves as the
    scheduler's EXPLAIN and audits {e every} submission. *)

open Rdb_data
open Rdb_engine

type shed_policy =
  | Shed_newest  (** drop the most recent arrival (the storm's margin) *)
  | Shed_largest_quota
      (** drop the largest declared cost quota — unbounded work first;
          ties broken newest-first *)

type crash_point =
  | Crash_at_grant of int
      (** the process dies at the first grant boundary with
          [tick >= g] *)
  | Crash_at_cost of float
      (** … at the first grant boundary at which the run's charged
          cost (global-meter delta since {!run} started) reaches [c] *)

type config = {
  max_inflight : int;  (** admission-control limit, >= 1 *)
  quantum : float;  (** cost units granted per scheduling slice *)
  max_queue : int;
      (** waiting-queue bound: arrivals beyond it are shed with a
          structured {!outcome.Shed}.  [max_int] — the default — never
          sheds and reproduces the unbounded-queue scheduler exactly *)
  shed_policy : shed_policy;  (** victim choice when the queue overflows *)
  pressure_threshold : int;
      (** queue depth at (and beyond) which newly admitted queries are
          degraded — competitive background refinement disabled, rows
          invariant; [max_int] — the default — never degrades *)
  pool_shards : int option;
      (** repartition the database's buffer pool into this many
          independent LRU shards before the run
          ({!Rdb_storage.Buffer_pool.reshard} — residency dropped,
          cost-only).  Sharding steers contention and cost, never
          results.  [None] — the default — leaves the pool as created;
          [Some 1] on a single-shard pool is byte-identical to [None] *)
  crash_points : crash_point list;
      (** deterministic crash injection (DESIGN.md §15): the run ends
          at the first grant boundary at which any point has fired —
          every non-terminal submission becomes {!outcome.Lost} (rows,
          cursors and in-flight rebuilds vanish; terminal outcomes
          stand), a {!event.Crashed} event is emitted, and the report
          carries [p_crash_tick].  The scheduler performs no volatile
          teardown itself — that is {!Recovery.crash_teardown}'s job —
          and crashes only fire {e between} grants, so any
          multi-operation commit inside one step is atomic.  [[]] —
          the default — is byte-identical to a scheduler without crash
          support *)
  retrieval : Retrieval.config;  (** default per-query config *)
  record_events : bool;  (** keep the scheduler event log (golden tests) *)
  metrics : Rdb_util.Metrics.t option;
      (** observation-only registry: quanta granted, queue depth at
          each grant, per-session charged cost, the starvation margin,
          and shed/timed-out/degraded counts are recorded during
          {!run}; [None] records nothing *)
}

val default_config : config

val starvation_bound : int
(** 16: a runnable session passed over this many consecutive grants is
    scheduled next unconditionally, whatever the config. *)

val max_steps_per_quantum : int
(** 4096: the hard step bound per grant, whatever the config, so
    zero-cost delivery (e.g. from a materialized sort) cannot hold the
    engine. *)

type id = int

type outcome =
  | Served  (** ran to its natural end (exhaustion, LIMIT, fault) *)
  | Timed_out of { deadline : float; spent : float }
      (** cost deadline exceeded; the partial rows delivered stand *)
  | Shed of { reason : string }
      (** dropped by the bounded queue before a cursor ever opened *)
  | Lost of { at_tick : int }
      (** the process crashed at grant [at_tick] before this
          submission reached a terminal outcome; its partial rows and
          progress are gone (a restart reissues it from the journal —
          {!Recovery}) *)

val outcome_to_string : outcome -> string

(** The scheduler's event log, in the order things happened.  Every
    submission gets exactly one {!event.Finished} carrying its
    outcome, except a {!outcome.Lost} one, which the run's single
    {!event.Crashed} counts instead. *)
type event =
  | Submitted of { id : id; label : string }
  | Admitted of { id : id; tick : int; waited : int }
      (** [waited] = grants issued between arrival and admission *)
  | Finished of { id : id; tick : int; rows : int; outcome : outcome }
      (** the job ended at grant [tick] with [outcome] ([Served],
          [Shed] or [Timed_out], never [Lost]); [rows] is what it had
          delivered (a repair: the entries it copied) *)
  | Degraded of { id : id; tick : int; depth : int }
      (** admitted under pressure with background refinement disabled *)
  | Crashed of { tick : int; lost : int }
      (** a configured crash point fired; [lost] submissions became
          {!outcome.Lost} *)

type session_stats = {
  s_id : id;
  s_label : string;
  s_rows : int;
  s_quanta : int;  (** grants this session received *)
  s_charged : float;  (** cost charged across its grants *)
  s_queue_wait : int;  (** grants issued while it waited for admission *)
  s_max_gap : int;
      (** max grants between two consecutive slices while runnable *)
  s_degradations : int;
      (** fault retries + quarantines + fallbacks in its trace *)
  s_outcome : outcome;
  s_degraded : bool;  (** admitted with background refinement disabled *)
  s_summary : Retrieval.summary option;
      (** [None] iff the query never opened a cursor (shed, or timed
          out on arrival) — the outcome still accounts for it *)
}

type repair_stats = {
  r_id : id;
  r_label : string;
  r_index : string;
  r_entries : int;  (** heap entries copied into the new tree *)
  r_ok : bool;  (** the rebuilt tree was swapped in *)
  r_quanta : int;
  r_charged : float;
  r_queue_wait : int;
  r_max_gap : int;
  r_retries : int;  (** transient-fault retries during the rebuild *)
  r_trace : Rdb_exec.Trace.event list;
}

type pool_stats = {
  p_grants : int;  (** total quanta granted *)
  p_physical : int;  (** pool physical reads during the run *)
  p_logical : int;  (** pool logical reads during the run *)
  p_hit_rate : float;  (** logical / (logical + physical); 1.0 if no reads *)
  p_total_cost : float;  (** sum of per-session charged cost *)
  p_max_inflight_seen : int;
  p_submitted : int;  (** every submission, queries and repairs alike *)
  p_served : int;
  p_shed : int;
  p_timed_out : int;
  p_lost : int;
      (** exact accounting:
          served + shed + timed_out + lost = submitted (lost is 0
          unless a crash point fired).  The four counters are kept as
          each job ends, not recounted from the sessions, and {!run}
          checks the sum *)
  p_crash_tick : int option;
      (** the grant at which the run crashed; [None] on a clean run *)
  p_shards : int;  (** buffer-pool shard count during the run *)
  p_shard_lookups : int array;
      (** residency probes this run performed, per shard *)
  p_lookup_balance : float;
      (** max/mean skew of [p_shard_lookups]
          ({!Rdb_storage.Buffer_pool.lookup_balance}); [1.0] when
          single-sharded *)
}

type report = {
  sessions : session_stats list;  (** in submission order *)
  repairs : repair_stats list;  (** in submission order *)
  pool : pool_stats;
  events : event list;  (** empty unless [record_events] *)
}

type t

val create : ?config:config -> Database.t -> t
(** Raises [Invalid_argument] when [max_inflight < 1], [quantum] is not
    [> 0] (NaN included), [max_queue < 0], [pressure_threshold < 0], or
    a [Crash_at_cost] point is NaN (it would never fire). *)

val submit :
  t ->
  ?label:string ->
  ?config:Retrieval.config ->
  ?limit:int ->
  ?quota:float ->
  ?deadline:float ->
  ?arrive_at:int ->
  Table.t ->
  Retrieval.request ->
  id
(** Enqueue a query.  Ids are dense, in submission order.  The table
    must belong to the scheduler's database (share its pool): one that
    does not raises [Invalid_argument] naming it, as do a negative
    [limit] and a NaN [quota] or [deadline].

    [quota] is the {e declared} admission-ordering quota — a
    declaration only, it enforces nothing; [None] (the default) ranks
    as unbounded.  [deadline] is a cost deadline in the same cost
    units every meter charges; it sets the query config's
    [Retrieval.deadline] (when both are given the tighter wins).  The
    cursor stops before the first step at which its total charged
    cost (planning included) has reached it, and the session ends
    that grant with outcome {!outcome.Timed_out}; a deadline [<= 0]
    times out on arrival without opening a cursor.  [arrive_at] (default [0]) is the grant
    tick at which the submission joins the queue — the storm
    workload's arrival process; the pool idles forward when nothing is
    runnable, so late arrivals always get service. *)

val submit_repair :
  t -> ?label:string -> ?quota:float -> Table.t -> index:string -> id
(** Enqueue an online rebuild of [index] ({!Repair}).  The repair is
    admitted, granted cost quanta, and reported exactly like a query
    session — background maintenance competes with foreground work
    instead of preempting it.  [quota] orders admission only (repairs
    run to completion regardless).  Ids share the query id space.
    Raises [Invalid_argument] on an unknown index, on a table outside
    the scheduler's database and on a NaN [quota]. *)

val run : t -> report
(** Drive every submitted query to a structured exit — [Served],
    [Timed_out], [Shed], or [Lost] when a crash point fires — and
    return the report.  May be called once; reuse requires a fresh
    scheduler.

    One transition ends every job: it sets the outcome (once), bumps
    that outcome's ledger counter and emits the job's
    {!event.Finished}.  Before building the report, [run] checks the
    ledger — every submission has an outcome and the counters sum to
    [p_submitted] — and raises [Failure] if not.  The check is always
    on and costs O(1) per transition. *)

val rows_of : t -> id -> Row.t list
(** Rows the session delivered, in delivery order (valid after
    {!run}).  Raises [Invalid_argument] on a repair id. *)

val repair_of : t -> id -> bool option
(** Outcome of a repair job ([None] before {!run}).  Raises
    [Invalid_argument] on a query id. *)

val report_to_string : report -> string
(** Deterministic text rendering: one line per submission — shed and
    timed-out sessions render their outcome where finishers render
    tactic/status, so the report audits every submission — plus the
    pool totals, a shard/lookup-balance line when the pool is
    partitioned ([p_shards > 1] only, so single-shard reports are
    byte-identical to the pre-sharding scheduler), a crash line when a
    crash point fired, and the served/shed/timed-out ledger (plus
    [lost] after a crash). *)
