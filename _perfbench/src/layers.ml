(* Per-layer measurements of the traced run.

   Every workload fills one [t] during its traced timed phase and its
   layer probes; [metrics] turns it into the fixed per-layer metric list
   that BENCHMARK.json names.  A layer a workload never calls reads 0. *)

open Rdb_storage
module R = Rdb_core.Retrieval
module M = Rdb_util.Metrics
module Trace = Rdb_exec.Trace
open Bench

type t = {
  mutable ops : int;  (** ops completed in the traced phase *)
  mutable phase_s : float;  (** wall seconds of the traced phase *)
  mutable untraced_qps : float;
  mutable traced_qps : float;
  mutable stmt_rows : int;  (** rows executed statements delivered or wrote *)
  mutable stmt_retrievals : int;  (** retrievals the executed statements ran *)
  mutable fetched_rows : int;  (** rows returned by [Retrieval.fetch] *)
  mutable summaries : int;
  mutable scans_started : int;
  mutable scans_completed : int;
  mutable scanned : int;
  mutable kept : int;
  mutable final_rids : int;
  mutable spills : int;
  mutable estimates : int;
  mutable estimate_nodes : int;
  first_row_cost : Samples.t;
  first_row_us : Samples.t;  (** fast-first probes: open_ to first row *)
  write_us : Samples.t;  (** DML: parse plus execute *)
  (* pool counters over the traced phase *)
  mutable physical : int;
  mutable logical : int;
  mutable writes : int;
  mutable lookups : int;
  mutable lookup_balance : float;
  (* garbage collector over the traced phase *)
  mutable minor_collections : int;
  mutable promoted_words : float;
  mutable major_collections : int;
  (* self seconds per layer at the end of the traced phase *)
  mutable self : (string * float) list;
  (* session layer *)
  mutable session_runs : int;
  mutable session_s : float;
  mutable grants : int;
  mutable session_hit_rate : float;
  mutable max_gap_p99 : float;
  mutable degraded_pct : float;
  mutable queue_wait_p99 : float;
  mutable words_per_session : float;
  mutable live_kb_per_session : float;
  (* probes: ns and minor words per call *)
  mutable estimate_ns : float;
  mutable estimate_words : float;
  mutable cursor_ns_per_key : float;
  mutable cursor_words_per_key : float;
  mutable heap_fetch_ns : float;
  mutable heap_fetch_words : float;
  mutable touch_read_ns : float;
  mutable touch_read_words : float;
  registry : M.t;
}

let create () =
  {
    ops = 0;
    phase_s = 0.0;
    untraced_qps = 0.0;
    traced_qps = 0.0;
    stmt_rows = 0;
    stmt_retrievals = 0;
    fetched_rows = 0;
    summaries = 0;
    scans_started = 0;
    scans_completed = 0;
    scanned = 0;
    kept = 0;
    final_rids = 0;
    spills = 0;
    estimates = 0;
    estimate_nodes = 0;
    first_row_cost = Samples.create ();
    first_row_us = Samples.create ();
    write_us = Samples.create ();
    physical = 0;
    logical = 0;
    writes = 0;
    lookups = 0;
    lookup_balance = 1.0;
    minor_collections = 0;
    promoted_words = 0.0;
    major_collections = 0;
    self = [];
    session_runs = 0;
    session_s = 0.0;
    grants = 0;
    session_hit_rate = 0.0;
    max_gap_p99 = 0.0;
    degraded_pct = 0.0;
    queue_wait_p99 = 0.0;
    words_per_session = 0.0;
    live_kb_per_session = 0.0;
    estimate_ns = 0.0;
    estimate_words = 0.0;
    cursor_ns_per_key = 0.0;
    cursor_words_per_key = 0.0;
    heap_fetch_ns = 0.0;
    heap_fetch_words = 0.0;
    touch_read_ns = 0.0;
    touch_read_words = 0.0;
    registry = M.create ();
  }

(* Fold one retrieval summary's trace into the scan-layer counters. *)
let add_summary t (s : R.summary) =
  t.summaries <- t.summaries + 1;
  Option.iter (Samples.add t.first_row_cost) s.R.cost_to_first_row;
  List.iter
    (function
      | Trace.Scan_started _ -> t.scans_started <- t.scans_started + 1
      | Trace.Scan_completed { kept; scanned; _ } ->
          t.scans_completed <- t.scans_completed + 1;
          t.kept <- t.kept + kept;
          t.scanned <- t.scanned + scanned
      | Trace.Final_stage { rids; _ } -> t.final_rids <- t.final_rids + rids
      | Trace.List_spilled _ -> t.spills <- t.spills + 1
      | Trace.Estimated { nodes; _ } ->
          t.estimates <- t.estimates + 1;
          t.estimate_nodes <- t.estimate_nodes + nodes
      | _ -> ())
    s.R.trace

(* One cursor read: the rows it fetched and its summary. *)
let add_read t got s =
  t.fetched_rows <- t.fetched_rows + List.length got;
  add_summary t s

(* One executed statement: its retrievals' summaries and the rows it
   handled — rows its retrievals delivered, plus [written]. *)
let add_statement t (res : Rdb_sql.Executor.result) ~written =
  let summaries = res.Rdb_sql.Executor.summaries in
  t.stmt_retrievals <- t.stmt_retrievals + List.length summaries;
  t.stmt_rows <-
    List.fold_left
      (fun a (_, s) -> a + s.R.rows_delivered)
      (t.stmt_rows + written) summaries;
  List.iter (fun (_, s) -> add_summary t s) summaries

(* Pool and collector readings bracketing the traced phase. *)
type mark = {
  m_physical : int;
  m_logical : int;
  m_writes : int;
  m_lookups : int;
  m_stat : Gc.stat;
  m_time : float;
}

let mark pool =
  let g = Buffer_pool.global_meter pool in
  {
    m_physical = Cost.physical_reads g;
    m_logical = Cost.logical_reads g;
    m_writes = Cost.block_writes g;
    m_lookups = Buffer_pool.lookups pool;
    m_stat = Gc.quick_stat ();
    m_time = now ();
  }

let close_phase t pool (m : mark) ~ops =
  let g = Buffer_pool.global_meter pool in
  let st = Gc.quick_stat () in
  t.ops <- ops;
  t.phase_s <- now () -. m.m_time;
  t.traced_qps <- ratio (fi ops) t.phase_s;
  t.physical <- Cost.physical_reads g - m.m_physical;
  t.logical <- Cost.logical_reads g - m.m_logical;
  t.writes <- Cost.block_writes g - m.m_writes;
  t.lookups <- Buffer_pool.lookups pool - m.m_lookups;
  t.minor_collections <- st.Gc.minor_collections - m.m_stat.Gc.minor_collections;
  t.major_collections <- st.Gc.major_collections - m.m_stat.Gc.major_collections;
  t.promoted_words <- st.Gc.promoted_words -. m.m_stat.Gc.promoted_words

let snapshot_self t (tr : Spans.t) =
  t.self <-
    List.map
      (fun layer -> (layer, Spans.self_seconds tr layer))
      [
        "op";
        "parser.parse";
        "executor.execute";
        "retrieval.open";
        "retrieval.fetch";
        "retrieval.close";
        "session.run";
      ]

(* Sum of the registry's counters whose name starts with [prefix]. *)
let counter_sum reg prefix =
  List.fold_left
    (fun acc (name, v) ->
      match v with
      | M.Counter n when String.starts_with ~prefix name -> acc + n
      | _ -> acc)
    0 (M.snapshot reg)

let histogram reg name =
  List.fold_left
    (fun acc (n, v) ->
      match v with M.Histogram { sum; count; _ } when n = name -> (sum, count) | _ -> acc)
    (0.0, 0) (M.snapshot reg)

let per_call tr name scale =
  ratio (Spans.total_seconds tr name *. scale) (fi (Spans.calls tr name))

let metrics t (tr : Spans.t) =
  let ops = fi (max 1 t.ops) in
  let reg = t.registry in
  let cost name = fst (histogram reg name) /. ops in
  let err_sum, err_n = histogram reg "retrieval.estimate_error" in
  let self name = try List.assoc name t.self with Not_found -> 0.0 in
  let self_pct names =
    100.0 *. ratio (List.fold_left (fun a n -> a +. self n) 0.0 names) t.phase_s
  in
  let stmts = fi (Spans.calls tr "executor.execute") in
  [
    metric "parser.parse_us" "us" (per_call tr "parser.parse" 1e6);
    metric "parser.words_per_stmt" "words"
      (ratio (Spans.words tr "parser.parse") (fi (Spans.calls tr "parser.parse")));
    metric "parser.self_pct" "%" (self_pct [ "parser.parse" ]);
    metric "executor.execute_us" "us" (per_call tr "executor.execute" 1e6);
    metric "executor.words_per_row" "words"
      (ratio (Spans.words tr "executor.execute") (fi t.stmt_rows));
    metric "executor.retrievals_per_stmt" "count" (ratio (fi t.stmt_retrievals) stmts);
    metric "executor.self_pct" "%" (self_pct [ "executor.execute" ]);
    metric "executor.write_p50_us" "us" (median (Samples.to_array t.write_us));
    metric "retrieval.open_us" "us" (per_call tr "retrieval.open" 1e6);
    metric "retrieval.open_words" "words"
      (ratio (Spans.words tr "retrieval.open") (fi (Spans.calls tr "retrieval.open")));
    metric "retrieval.fetch_ns_per_row" "ns"
      (ratio (Spans.total_seconds tr "retrieval.fetch" *. 1e9) (fi t.fetched_rows));
    metric "retrieval.fetch_words_per_row" "words"
      (ratio (Spans.words tr "retrieval.fetch") (fi t.fetched_rows));
    metric "retrieval.close_us" "us" (per_call tr "retrieval.close" 1e6);
    metric "retrieval.self_pct" "%"
      (self_pct [ "retrieval.open"; "retrieval.fetch"; "retrieval.close" ]);
    metric "retrieval.first_row_p50_us" "us" (median (Samples.to_array t.first_row_us));
    metric "retrieval.cost_estimation_per_op" "cost" (cost "retrieval.cost.estimation");
    metric "retrieval.cost_foreground_per_op" "cost" (cost "retrieval.cost.foreground");
    metric "retrieval.cost_background_per_op" "cost" (cost "retrieval.cost.background");
    metric "retrieval.cost_to_first_row_p50" "cost"
      (median (Samples.to_array t.first_row_cost));
    metric "retrieval.estimate_error_mean" "ratio" (ratio err_sum (fi err_n));
    metric "retrieval.switch_points_per_op" "count"
      (fi (counter_sum reg "retrieval.switch_points") /. ops);
    metric "session.run_s" "s" (ratio t.session_s (fi t.session_runs));
    metric "session.us_per_grant" "us" (ratio (t.session_s *. 1e6) (fi t.grants));
    metric "session.grants" "count" (ratio (fi t.grants) (fi t.session_runs));
    metric "session.hit_rate" "ratio" t.session_hit_rate;
    metric "session.max_gap_p99" "grants" t.max_gap_p99;
    metric "session.degraded_pct" "%" t.degraded_pct;
    metric "session.queue_wait_p99_grants" "grants" t.queue_wait_p99;
    metric "session.words_per_session" "words" t.words_per_session;
    metric "session.live_kb_per_session" "KiB" t.live_kb_per_session;
    metric "session.self_pct" "%" (self_pct [ "session.run" ]);
    metric "exec.scans_per_op" "count" (fi t.scans_started /. ops);
    metric "exec.scan_useful_ratio" "ratio"
      (ratio (fi t.scans_completed) (fi t.scans_started));
    metric "exec.scanned_per_kept" "ratio" (ratio (fi t.scanned) (fi t.kept));
    metric "exec.final_stage_rids_per_op" "count" (fi t.final_rids /. ops);
    metric "exec.spills_per_op" "count" (fi t.spills /. ops);
    metric "buffer_pool.hit_rate" "ratio"
      (ratio (fi t.logical) (fi (t.logical + t.physical)));
    metric "buffer_pool.physical_reads_per_op" "count" (fi t.physical /. ops);
    metric "buffer_pool.logical_reads_per_op" "count" (fi t.logical /. ops);
    metric "buffer_pool.evictions_per_op" "count"
      (fi (counter_sum reg "pool.evict{") /. ops);
    metric "buffer_pool.lookups_per_op" "count" (fi t.lookups /. ops);
    metric "buffer_pool.writes_per_op" "count" (fi t.writes /. ops);
    metric "buffer_pool.lookup_balance" "ratio" t.lookup_balance;
    metric "buffer_pool.touch_read_ns" "ns" t.touch_read_ns;
    metric "buffer_pool.touch_read_words" "words" t.touch_read_words;
    metric "heap_file.fetch_ns" "ns" t.heap_fetch_ns;
    metric "heap_file.fetch_words" "words" t.heap_fetch_words;
    metric "estimate.range_ns" "ns" t.estimate_ns;
    metric "estimate.range_words" "words" t.estimate_words;
    metric "estimate.nodes_per_estimate" "count"
      (ratio (fi t.estimate_nodes) (fi t.estimates));
    metric "btree.cursor_ns_per_key" "ns" t.cursor_ns_per_key;
    metric "btree.cursor_words_per_key" "words" t.cursor_words_per_key;
    metric "gc.minor_collections_per_op" "count" (fi t.minor_collections /. ops);
    metric "gc.promoted_words_per_op" "words" (t.promoted_words /. ops);
    metric "gc.major_collections" "count" (fi t.major_collections);
    metric "bench.self_pct" "%" (self_pct [ "op" ]);
    metric "trace.overhead_pct" "%"
      (100.0 *. ratio (t.untraced_qps -. t.traced_qps) t.untraced_qps);
  ]
