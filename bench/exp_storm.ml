(* Overload survival and sharded-pool scale under storm traffic.

   ROADMAP item 2: thousands of concurrent sessions over a sharded
   buffer pool.  A heavy-tailed storm (bursty Zipf arrival gaps in
   waves, Zipf quota mix, a tail of tight cost deadlines) of at least
   1024 sessions — RDB_STORM_SCALE raises it further, the nightly CI
   job runs 4096 — is thrown at a bounded queue with graceful
   degradation, over a pool partitioned into 8 LRU shards.  Measured:

   - exact accounting at scale: every submission ends served, shed, or
     timed out — the three counts sum to the submission count;
   - per-shard lookup balance: the deterministic block->shard mix keeps
     the probe load within a bounded skew of perfectly even;
   - sharding steers contention, never results: sessions served under
     every shard count in {1, 2, 8} deliver byte-identical rows in the
     same order, and no shard count introduces degradation events;
   - shards=1 is the monolithic pool byte-for-byte: its storm report is
     identical to a run that never touches the shard knob;
   - starvation bound holds for everything that runs;
   - isolation: each survivor's rows (content AND order) are identical
     to a calm rerun without the shed/timed-out peers;
   - every exit is structured, timed-out sessions keep partial rows,
     served non-LIMIT queries match the full-scan oracle;
   - equal seeds give byte-identical reports. *)

open Rdb_data
open Rdb_engine
module R = Rdb_core.Retrieval
module S = Rdb_core.Session
module Goal = Rdb_core.Goal
module Datasets = Rdb_workload.Datasets
module Traffic = Rdb_workload.Traffic

let name = "storm"

let description =
  "thousand-session storms over a sharded buffer pool: scale accounting, shard \
   balance, result invariance"

(* >= 1024 by default; the nightly CI job exports RDB_STORM_SCALE=4096. *)
let scale =
  match Sys.getenv_opt "RDB_STORM_SCALE" with
  | Some s -> ( match int_of_string_opt s with Some n when n >= 1 -> n | _ -> 1024)
  | None -> 1024

let request_of (sp : Traffic.spec) =
  R.request ~env:sp.Traffic.env ~order_by:sp.Traffic.order_by
    ?explicit_goal:(if sp.Traffic.fast_first then Some Goal.Fast_first else None)
    sp.Traffic.pred

let row_strings rows = List.map Row.to_string rows
let multiset rows = List.sort compare (row_strings rows)

(* Order-sensitive fingerprint of a delivered row list — lets the
   cross-shard comparison hold thousands of result sets without
   retaining the rows themselves. *)
let digest_rows rows = Digest.to_hex (Digest.string (String.concat "\n" (row_strings rows)))

let oracle table (sp : Traffic.spec) =
  let pred = Predicate.simplify (Predicate.bind sp.Traffic.pred sp.Traffic.env) in
  let m = Rdb_storage.Cost.create () in
  let out = ref [] in
  Rdb_storage.Heap_file.iter (Table.heap table) m (fun _ row ->
      if Predicate.eval pred (Table.schema table) row then out := row :: !out);
  !out

let storm_config ~shed_policy ~pool_shards =
  {
    S.default_config with
    S.max_inflight = 8;
    quantum = 12.0;
    max_queue = 12;
    shed_policy;
    pressure_threshold = 10;
    pool_shards;
    record_events = false;
  }

(* Submit the whole storm into one scheduler and run it. *)
let run_storm db table arrivals ~shed_policy ~pool_shards =
  Bench_common.flush_pool db;
  let sched = S.create ~config:(storm_config ~shed_policy ~pool_shards) db in
  let ids =
    List.map
      (fun (a : Traffic.arrival) ->
        let sp = a.Traffic.spec in
        S.submit sched ~label:sp.Traffic.label ?limit:sp.Traffic.limit
          ?quota:a.Traffic.quota ?deadline:a.Traffic.deadline
          ~arrive_at:a.Traffic.arrive_at table (request_of sp))
      arrivals
  in
  let report = S.run sched in
  (sched, report, ids)

let outcome_kind (s : S.session_stats) =
  match s.S.s_outcome with
  | S.Served -> `Served
  | S.Timed_out _ -> `Timed_out
  | S.Shed _ -> `Shed
  | S.Lost _ -> `Lost (* storms run without crash points; never fires *)

(* Per-session record of one shard-count run: outcome, an ordered-rows
   digest for served sessions (timed-out partials are cost-dependent,
   so they are excluded from cross-shard comparison by design), and the
   degradation-event count from the trace. *)
let snapshot sched (report : S.report) =
  List.map
    (fun (s : S.session_stats) ->
      let dg =
        if outcome_kind s = `Served then digest_rows (S.rows_of sched s.S.s_id) else ""
      in
      (s.S.s_id, outcome_kind s, dg, s.S.s_degradations))
    report.S.sessions

let run () =
  Bench_common.section
    "Experiment storm — thousand-session storms over a sharded buffer pool";
  let db = Datasets.fresh_db ~pool_capacity:96 () in
  let table = Datasets.orders ~rows:12000 db in
  let count = scale in
  let waves = max 1 (count / 256) in
  let arrivals = Traffic.storm ~seed:4242 ~count ~waves () in

  (* --- the headline storm run: 8 shards, shed-largest-quota --------- *)
  let sched, report, ids =
    run_storm db table arrivals ~shed_policy:S.Shed_largest_quota
      ~pool_shards:(Some 8)
  in
  let sessions = report.S.sessions in
  let served = List.filter (fun s -> outcome_kind s = `Served) sessions in
  let shed = List.filter (fun s -> outcome_kind s = `Shed) sessions in
  let timed_out = List.filter (fun s -> outcome_kind s = `Timed_out) sessions in
  let degraded = List.filter (fun s -> s.S.s_degraded) sessions in

  Bench_common.subsection
    (Printf.sprintf
       "storm of %d submissions in %d waves (max_inflight=8, max_queue=12, \
        pressure_threshold=10, shed-largest-quota, 8 pool shards)"
       count waves);
  Bench_common.table
    ~header:[ "outcome"; "count"; "rows"; "charged" ]
    (List.map
       (fun (label, ss) ->
         [
           label;
           string_of_int (List.length ss);
           string_of_int (List.fold_left (fun acc s -> acc + s.S.s_rows) 0 ss);
           Bench_common.f1 (List.fold_left (fun acc s -> acc +. s.S.s_charged) 0.0 ss);
         ])
       [
         ("served", served);
         ("timed out", timed_out);
         ("shed", shed);
         ("degraded (subset of served)", degraded);
       ]);
  Printf.printf "pool: %d grants, total charged %.1f, hit rate %.3f, max in-flight %d\n"
    report.S.pool.S.p_grants report.S.pool.S.p_total_cost report.S.pool.S.p_hit_rate
    report.S.pool.S.p_max_inflight_seen;
  Printf.printf "shards: %d, lookup balance %.3f (per-shard lookups %s)\n"
    report.S.pool.S.p_shards report.S.pool.S.p_lookup_balance
    (String.concat "/"
       (Array.to_list (Array.map string_of_int report.S.pool.S.p_shard_lookups)));
  let snap_8 = snapshot sched report in

  (* --- shed-policy comparison --------------------------------------- *)
  let _, newest_report, _ =
    run_storm db table arrivals ~shed_policy:S.Shed_newest ~pool_shards:(Some 8)
  in
  Bench_common.subsection "shed-policy comparison (same storm, 8 shards)";
  Bench_common.table
    ~header:[ "policy"; "served"; "shed"; "timed out" ]
    (List.map
       (fun (label, (rep : S.report)) ->
         [
           label;
           string_of_int rep.S.pool.S.p_served;
           string_of_int rep.S.pool.S.p_shed;
           string_of_int rep.S.pool.S.p_timed_out;
         ])
       [ ("shed-largest-quota", report); ("shed-newest", newest_report) ]);

  (* --- determinism ---------------------------------------------------- *)
  let _, rep_repeat, _ =
    run_storm db table arrivals ~shed_policy:S.Shed_largest_quota
      ~pool_shards:(Some 8)
  in
  let deterministic = S.report_to_string report = S.report_to_string rep_repeat in

  (* --- shard-count invariance: {1, 2, 8} ----------------------------- *)
  (* Costs differ across shard counts (each count is a different
     eviction domain), so *which* sessions survive the deadlines may
     differ — but every session served under all three counts must
     deliver byte-identical rows in the same order, and no count may
     introduce degradation events (retries / quarantines / fallbacks:
     this storm runs fault-free, so any nonzero count would be
     sharding corrupting a scan). *)
  let snap_2 =
    let sched2, rep2, _ =
      run_storm db table arrivals ~shed_policy:S.Shed_largest_quota
        ~pool_shards:(Some 2)
    in
    snapshot sched2 rep2
  in
  let sched1, rep1, _ =
    run_storm db table arrivals ~shed_policy:S.Shed_largest_quota ~pool_shards:(Some 1)
  in
  let snap_1 = snapshot sched1 rep1 in
  let report_1 = S.report_to_string rep1 in
  let common_served = ref 0 in
  let rows_invariant = ref true in
  let no_degradations = ref true in
  List.iter
    (fun ((id, k8, d8, deg8), ((_, k2, d2, deg2), (_, k1, d1, deg1))) ->
      ignore id;
      if deg8 + deg2 + deg1 > 0 then no_degradations := false;
      if k8 = `Served && k2 = `Served && k1 = `Served then begin
        incr common_served;
        if not (String.equal d8 d2 && String.equal d2 d1) then rows_invariant := false
      end)
    (List.combine snap_8 (List.combine snap_2 snap_1));

  (* --- shards=1 is byte-for-byte the monolithic pool ------------------ *)
  (* The same storm through a scheduler that never touches the shard
     knob (the pool is single-sharded after the run above): any
     difference would mean the sharded code path leaks into the
     single-shard pool. *)
  let _, rep_untouched, _ =
    run_storm db table arrivals ~shed_policy:S.Shed_largest_quota ~pool_shards:None
  in
  let monolith_identical = String.equal report_1 (S.report_to_string rep_untouched) in

  (* --- isolation: calm rerun of the survivors only ------------------ *)
  (* Same queries, no storm: unbounded queue, no deadlines, no
     pressure.  Every survivor must deliver byte-identical rows in the
     same order — shedding changed which queries ran, never their
     results. *)
  let survivor_arrivals =
    List.filter_map
      (fun ((a : Traffic.arrival), id) ->
        let s = List.find (fun s -> s.S.s_id = id) sessions in
        if outcome_kind s = `Served then Some (a, id) else None)
      (List.combine arrivals ids)
  in
  Bench_common.flush_pool db;
  let calm =
    S.create
      ~config:{ S.default_config with S.max_inflight = 8; S.record_events = false }
      db
  in
  let calm_ids =
    List.map
      (fun ((a : Traffic.arrival), _) ->
        let sp = a.Traffic.spec in
        S.submit calm ~label:sp.Traffic.label ?limit:sp.Traffic.limit table
          (request_of sp))
      survivor_arrivals
  in
  let _ = S.run calm in
  let survivors_invariant =
    List.for_all2
      (fun (_, storm_id) calm_id ->
        row_strings (S.rows_of sched storm_id) = row_strings (S.rows_of calm calm_id))
      survivor_arrivals calm_ids
  in

  (* --- served non-LIMIT queries still match the oracle --------------- *)
  let served_correct =
    List.for_all2
      (fun (a : Traffic.arrival) id ->
        let s = List.find (fun s -> s.S.s_id = id) sessions in
        match (outcome_kind s, a.Traffic.spec.Traffic.limit) with
        | `Served, None ->
            multiset (S.rows_of sched id) = multiset (oracle table a.Traffic.spec)
        | _ -> true)
      arrivals ids
  in

  (* --- structured exits ---------------------------------------------- *)
  let structured_exits =
    List.for_all
      (fun (s : S.session_stats) ->
        match (s.S.s_outcome, s.S.s_summary) with
        | S.Served, Some _ -> true
        | S.Timed_out _, Some summary -> (
            match summary.R.status with R.Timed_out _ -> true | _ -> false)
        | S.Timed_out _, None ->
            (* timed out on arrival: never ran, charged nothing *)
            s.S.s_quanta = 0 && s.S.s_charged = 0.0 && s.S.s_rows = 0
        | S.Shed _, None -> s.S.s_quanta = 0 && s.S.s_charged = 0.0 && s.S.s_rows = 0
        | S.Served, None | S.Shed _, Some _ -> false
        | S.Lost _, _ -> false (* no crash points in storms *))
      sessions
  in
  let partial_rows_kept =
    List.exists
      (fun (s : S.session_stats) ->
        match s.S.s_outcome with S.Timed_out _ -> s.S.s_rows > 0 | _ -> false)
      sessions
  in

  let max_gap =
    List.fold_left (fun acc (s : S.session_stats) -> max acc s.S.s_max_gap) 0 sessions
  in
  let p = report.S.pool in
  Bench_common.metric "storm_submitted" (float_of_int p.S.p_submitted);
  Bench_common.metric ~dir:Bench_common.Higher_better "storm_served"
    (float_of_int p.S.p_served);
  Bench_common.metric ~dir:Bench_common.Lower_better "storm_shed"
    (float_of_int p.S.p_shed);
  Bench_common.metric ~dir:Bench_common.Lower_better "storm_timed_out"
    (float_of_int p.S.p_timed_out);
  Bench_common.metric "storm_degraded" (float_of_int (List.length degraded));
  Bench_common.metric ~dir:Bench_common.Lower_better "storm_total_cost" p.S.p_total_cost;
  Bench_common.metric ~dir:Bench_common.Higher_better "storm_hit_rate" p.S.p_hit_rate;
  Bench_common.metric ~dir:Bench_common.Lower_better "storm_max_gap"
    (float_of_int max_gap);
  Bench_common.metric ~dir:Bench_common.Lower_better "storm_lookup_balance"
    p.S.p_lookup_balance;

  (* --- checkpoints ---------------------------------------------------- *)
  Bench_common.subsection "paper checkpoints";
  Printf.printf "storm scale >= 1024 sessions (%d submitted): %b\n" p.S.p_submitted
    (p.S.p_submitted >= min scale 1024 && p.S.p_submitted = count);
  Printf.printf
    "exact accounting at scale (%d served + %d shed + %d timed out = %d submitted): %b\n"
    p.S.p_served p.S.p_shed p.S.p_timed_out p.S.p_submitted
    (p.S.p_served + p.S.p_shed + p.S.p_timed_out = p.S.p_submitted);
  Printf.printf
    "overload exercised (shed %d > 0, timed out %d > 0, degraded %d > 0): %b\n"
    p.S.p_shed p.S.p_timed_out (List.length degraded)
    (p.S.p_shed > 0 && p.S.p_timed_out > 0 && degraded <> []);
  Printf.printf "per-shard lookup balance within bounded skew (%.3f <= 1.50 at %d shards): %b\n"
    p.S.p_lookup_balance p.S.p_shards
    (p.S.p_shards = 8 && p.S.p_lookup_balance <= 1.5);
  Printf.printf "starvation bound holds under storm (max gap %d <= bound %d): %b\n"
    max_gap S.starvation_bound (max_gap <= S.starvation_bound);
  Printf.printf
    "rows and order invariant across shard counts {1,2,8} (%d sessions served under \
     all): %b\n"
    !common_served
    (!rows_invariant && !common_served > 0);
  Printf.printf
    "no shard count introduces degradation events (fault-free storm stays clean): %b\n"
    !no_degradations;
  Printf.printf "shards=1 report byte-identical to the untouched monolithic pool: %b\n"
    monolith_identical;
  Printf.printf "survivor rows invariant under shed/timed-out peers (%d survivors): %b\n"
    (List.length survivor_arrivals) survivors_invariant;
  Printf.printf "served non-LIMIT rows match the full-scan oracle: %b\n" served_correct;
  Printf.printf "every exit structured (shed/timed-out never absorb): %b\n"
    structured_exits;
  Printf.printf "timed-out sessions keep their partial rows: %b\n" partial_rows_kept;
  Printf.printf "equal seeds and configs give byte-identical reports: %b\n" deterministic
