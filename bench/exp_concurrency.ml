(* Multi-query session scheduler under one shared buffer pool.

   The paper's competition model interleaves scan machines by cost
   quanta inside one query; Rdb/VMS ran that machinery under
   concurrent sessions sharing one page buffer.  This experiment
   reproduces the pressure: N queries driven by round-robin cost
   quanta against one pool, with admission control and a starvation
   bound.  Measured:

   - row-set invariance: any (quantum, max-inflight) interleaving
     returns the same rows per query (LIMIT queries, set-nondeterministic
     by SQL semantics, are compared by count and oracle containment);
   - bounded overhead: concurrent total cost vs the serial (one
     in-flight) schedule through the same scheduler;
   - no starvation at max admission; queue waits under tight admission;
   - cost-quota-aware admission ordering;
   - determinism: equal seeds/configs give byte-identical reports. *)

open Rdb_data
open Rdb_engine
module R = Rdb_core.Retrieval
module S = Rdb_core.Session
module Goal = Rdb_core.Goal
module Datasets = Rdb_workload.Datasets
module Traffic = Rdb_workload.Traffic

let name = "concurrency"

let description =
  "session scheduler: rows invariant under interleaving, bounded overhead, no starvation"

let request_of (sp : Traffic.spec) =
  R.request ~env:sp.Traffic.env ~order_by:sp.Traffic.order_by
    ?explicit_goal:(if sp.Traffic.fast_first then Some Goal.Fast_first else None)
    sp.Traffic.pred

let row_key row = Value.to_string (Row.get row 0)
let multiset rows = List.sort compare (List.map row_key rows)

let oracle table (sp : Traffic.spec) =
  let pred = Predicate.simplify (Predicate.bind sp.Traffic.pred sp.Traffic.env) in
  let m = Rdb_storage.Cost.create () in
  let out = ref [] in
  Rdb_storage.Heap_file.iter (Table.heap table) m (fun _ row ->
      if Predicate.eval pred (Table.schema table) row then out := row :: !out);
  !out

(* Run the whole spec list through one scheduler; return the report and
   per-spec delivered rows. *)
let run_schedule ?(record_events = false) db table specs ~max_inflight ~quantum =
  Bench_common.flush_pool db;
  let cfg = { S.default_config with S.max_inflight; quantum; record_events } in
  let sched = S.create ~config:cfg db in
  let ids =
    List.map
      (fun sp ->
        S.submit sched ~label:sp.Traffic.label ?limit:sp.Traffic.limit table
          (request_of sp))
      specs
  in
  let report = S.run sched in
  (report, List.map (fun id -> S.rows_of sched id) ids)

(* A LIMIT query without ORDER BY may deliver any qualifying subset of
   the right size; everything else must match the oracle multiset. *)
let rows_ok (sp : Traffic.spec) ~oracle_rows rows =
  let full = multiset oracle_rows in
  match sp.Traffic.limit with
  | None -> multiset rows = full
  | Some n ->
      List.length rows = min n (List.length full)
      && List.for_all (fun r -> List.mem (row_key r) full) rows

let run () =
  Bench_common.section
    "Experiment concurrency — multi-query scheduler over a shared pool";
  (* Working set deliberately larger than the pool: interleavings now
     differ through cache interference (§3c), which is the effect a
     multi-query scheduler has to keep bounded. *)
  let db = Datasets.fresh_db ~pool_capacity:96 () in
  let table = Datasets.orders ~rows:24000 db in
  let specs = Traffic.orders_mix ~seed:77 ~count:10 () in
  let oracles = List.map (fun sp -> oracle table sp) specs in

  (* --- serial baseline (same machinery, one in-flight) ------------- *)
  let serial_report, serial_rows = run_schedule db table specs ~max_inflight:1 ~quantum:50.0 in

  (* --- the headline concurrent run --------------------------------- *)
  let conc_report, conc_rows = run_schedule db table specs ~max_inflight:4 ~quantum:50.0 in
  Bench_common.subsection "per-session stats (max_inflight=4, quantum=50)";
  print_string (S.report_to_string conc_report);

  (* --- interleaving sweep ------------------------------------------ *)
  let sweep =
    List.concat_map
      (fun quantum ->
        List.map
          (fun max_inflight ->
            let report, rows = run_schedule db table specs ~max_inflight ~quantum in
            (quantum, max_inflight, report, rows))
          [ 1; 2; 4; 10 ])
      [ 5.0; 50.0; 400.0 ]
  in
  Bench_common.subsection "interleaving sweep (quantum x max in-flight)";
  Bench_common.table
    ~header:[ "quantum"; "inflight"; "grants"; "total cost"; "hit rate"; "max gap" ]
    (List.map
       (fun (q, mi, (r : S.report), _) ->
         let max_gap =
           List.fold_left (fun acc s -> max acc s.S.s_max_gap) 0 r.S.sessions
         in
         [
           Bench_common.f1 q;
           string_of_int mi;
           string_of_int r.S.pool.S.p_grants;
           Bench_common.f1 r.S.pool.S.p_total_cost;
           Bench_common.f3 r.S.pool.S.p_hit_rate;
           string_of_int max_gap;
         ])
       sweep);

  (* --- quota-aware admission --------------------------------------- *)
  (* Tight admission (1 slot): a late-arriving query that declares a
     cost quota is admitted ahead of earlier unbounded arrivals. *)
  Bench_common.flush_pool db;
  let sched =
    S.create ~config:{ S.default_config with S.max_inflight = 1; record_events = true } db
  in
  let subs =
    List.mapi
      (fun i sp ->
        let quota = if i = List.length specs - 1 then Some 1.0e9 else None in
        S.submit sched ~label:sp.Traffic.label ?quota ?limit:sp.Traffic.limit table
          (request_of sp))
      specs
  in
  let quota_id = List.nth subs (List.length subs - 1) in
  let quota_report = S.run sched in
  let admission_order =
    List.filter_map
      (function S.Admitted { id; _ } -> Some id | _ -> None)
      quota_report.S.events
  in
  (* All queries are queued before [run]; with one slot, the bounded
     (quota-declaring) query is admitted first despite arriving last. *)
  let quota_jumped =
    match admission_order with first :: _ -> first = quota_id | [] -> false
  in

  (* --- determinism -------------------------------------------------- *)
  let rep_a, _ = run_schedule ~record_events:true db table specs ~max_inflight:4 ~quantum:50.0 in
  let rep_b, _ = run_schedule ~record_events:true db table specs ~max_inflight:4 ~quantum:50.0 in
  let deterministic = S.report_to_string rep_a = S.report_to_string rep_b in

  (* --- starvation at max admission ---------------------------------- *)
  let all_in, all_rows = run_schedule db table specs ~max_inflight:(List.length specs) ~quantum:20.0 in
  let max_gap_all =
    List.fold_left (fun acc s -> max acc s.S.s_max_gap) 0 all_in.S.sessions
  in

  Bench_common.subsection "serial vs concurrent";
  let overhead = conc_report.S.pool.S.p_total_cost /. serial_report.S.pool.S.p_total_cost in
  Bench_common.table
    ~header:[ "schedule"; "grants"; "total cost"; "hit rate" ]
    [
      [
        "serial (1 in-flight)";
        string_of_int serial_report.S.pool.S.p_grants;
        Bench_common.f1 serial_report.S.pool.S.p_total_cost;
        Bench_common.f3 serial_report.S.pool.S.p_hit_rate;
      ];
      [
        "concurrent (4 in-flight)";
        string_of_int conc_report.S.pool.S.p_grants;
        Bench_common.f1 conc_report.S.pool.S.p_total_cost;
        Bench_common.f3 conc_report.S.pool.S.p_hit_rate;
      ];
    ];
  Printf.printf "concurrency overhead factor: %.2fx\n" overhead;
  Bench_common.metric ~dir:Bench_common.Lower_better "serial_total_cost"
    serial_report.S.pool.S.p_total_cost;
  Bench_common.metric ~dir:Bench_common.Lower_better "concurrent_total_cost"
    conc_report.S.pool.S.p_total_cost;
  Bench_common.metric ~dir:Bench_common.Lower_better "concurrency_overhead_factor"
    overhead;
  Bench_common.metric ~dir:Bench_common.Higher_better "concurrent_hit_rate"
    conc_report.S.pool.S.p_hit_rate;
  Bench_common.metric "concurrent_grants"
    (float_of_int conc_report.S.pool.S.p_grants);
  Bench_common.metric "max_gap_at_full_admission" (float_of_int max_gap_all);

  (* --- checkpoints -------------------------------------------------- *)
  Bench_common.subsection "paper checkpoints";
  let invariant_everywhere =
    List.for_all
      (fun (_, _, _, rows) ->
        List.for_all2
          (fun (sp, oracle_rows) rows -> rows_ok sp ~oracle_rows rows)
          (List.combine specs oracles)
          rows)
      ((50.0, 1, serial_report, serial_rows)
      :: (50.0, 4, conc_report, conc_rows)
      :: (20.0, List.length specs, all_in, all_rows)
      :: sweep)
  in
  Printf.printf "row sets invariant under every interleaving: %b\n" invariant_everywhere;
  Printf.printf "concurrent total cost within 3x of serial (%.2fx): %b\n" overhead
    (overhead <= 3.0);
  Printf.printf "no starvation at max admission (max gap %d <= bound %d): %b\n"
    max_gap_all S.starvation_bound
    (max_gap_all <= S.starvation_bound
    && List.for_all
         (fun s ->
           match s.S.s_summary with
           | Some summary -> summary.R.status = R.Completed
           | None -> false)
         all_in.S.sessions);
  Printf.printf "admission control holds (max in-flight seen %d <= 4): %b\n"
    conc_report.S.pool.S.p_max_inflight_seen
    (conc_report.S.pool.S.p_max_inflight_seen <= 4);
  Printf.printf "cost-quota-aware admission (bounded query jumped the queue): %b\n"
    quota_jumped;
  Printf.printf "equal seeds and configs give byte-identical reports: %b\n" deterministic;
  let waits_visible =
    List.exists (fun s -> s.S.s_queue_wait > 0) conc_report.S.sessions
  in
  Printf.printf "queue waits observable under tight admission: %b\n" waits_visible
