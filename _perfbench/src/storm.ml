(* storm: a thousand-session overload storm through one Session.run —
   the only workload that drives admission, shedding, deadlines and
   grants.

   Arrivals are an open loop on the scheduler's grant clock (waves of
   bursts); in wall-clock terms a storm is one batch, so a run cycles
   through three storms made from its seed, each on fresh data, until
   the storms have run the run's seconds.  The scheduler configuration is
   the storm experiment's: 8 in flight, queue 12, pressure 10,
   shed-largest-quota, a 96-block pool in 8 shards. *)

open Rdb_data
open Rdb_engine
module R = Rdb_core.Retrieval
module S = Rdb_core.Session
module Goal = Rdb_core.Goal
module Datasets = Rdb_workload.Datasets
module Traffic = Rdb_workload.Traffic
open Bench

let rows = 12_000
let sessions = 1024
let waves = 4
let pool_blocks = 96
let shards = 8
let warmup_specs = 64

(* Events are kept: each served session's finish tick gives its sojourn. *)
let config =
  {
    S.default_config with
    S.max_inflight = 8;
    quantum = 12.0;
    max_queue = 12;
    shed_policy = S.Shed_largest_quota;
    pressure_threshold = 10;
    pool_shards = Some shards;
    record_events = true;
  }

let request_of (sp : Traffic.spec) =
  R.request ~env:sp.Traffic.env ~order_by:sp.Traffic.order_by
    ?explicit_goal:(if sp.Traffic.fast_first then Some Goal.Fast_first else None)
    sp.Traffic.pred

type storm = {
  db : Database.t;
  table : Table.t;
  arrivals : Traffic.arrival list;
  sched : S.t;
}

(* Set-up: data, arrivals and their submission.  The warm-up (calm
   retrievals of the first specs) runs before submission and is not
   part of set-up time. *)
let setup ~seed ~config =
  let t0 = now () in
  let db = Datasets.fresh_db ~pool_capacity:pool_blocks () in
  let table = Datasets.orders ~rows ~seed db in
  let arrivals = Traffic.storm ~seed ~count:sessions ~waves () in
  let built = now () -. t0 in
  List.iteri
    (fun i (a : Traffic.arrival) ->
      let sp = a.Traffic.spec in
      if i < warmup_specs then
        ignore (R.run ?limit:sp.Traffic.limit table (request_of sp)))
    arrivals;
  Rdb_storage.Buffer_pool.flush (Database.pool db);
  let t1 = now () in
  let sched = S.create ~config db in
  List.iter
    (fun (a : Traffic.arrival) ->
      let sp = a.Traffic.spec in
      ignore
        (S.submit sched ~label:sp.Traffic.label ?limit:sp.Traffic.limit
           ?quota:a.Traffic.quota ?deadline:a.Traffic.deadline
           ~arrive_at:a.Traffic.arrive_at table (request_of sp)))
    arrivals;
  ({ db; table; arrivals; sched }, built +. (now () -. t1))

let served (s : S.session_stats) = match s.S.s_outcome with S.Served -> true | _ -> false

(* Sojourn of each served session, in grants: arrival tick to finish. *)
let sojourns (st : storm) (report : S.report) =
  let arrive =
    Array.of_list
      (List.map (fun (a : Traffic.arrival) -> a.Traffic.arrive_at) st.arrivals)
  in
  let finish = Hashtbl.create sessions in
  List.iter
    (function S.Finished { id; tick; _ } -> Hashtbl.replace finish id tick | _ -> ())
    report.S.events;
  Array.of_list
    (List.filter_map
       (fun (s : S.session_stats) ->
         if served s then
           Option.map
             (fun f -> fi (f - arrive.(s.S.s_id)))
             (Hashtbl.find_opt finish s.S.s_id)
         else None)
       report.S.sessions)

(* --- answer checks ---------------------------------------------------- *)

(* [rows]: the table's rows from one plain heap scan. *)
let oracle table rows (sp : Traffic.spec) =
  let pred = Predicate.simplify (Predicate.bind sp.Traffic.pred sp.Traffic.env) in
  let schema = Table.schema table in
  multiset (List.filter (fun row -> Predicate.eval pred schema row) (Array.to_list rows))

(* Exact accounting, survivors' rows equal to a calm rerun (content and
   order), and served non-LIMIT rows equal to a heap-scan oracle. *)
let check (st : storm) (report : S.report) =
  let errors = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  let p = report.S.pool in
  if p.S.p_served + p.S.p_shed + p.S.p_timed_out + p.S.p_lost <> p.S.p_submitted
     || p.S.p_submitted <> sessions
  then
    fail "accounting: %d served + %d shed + %d timed out + %d lost <> %d submitted"
      p.S.p_served p.S.p_shed p.S.p_timed_out p.S.p_lost p.S.p_submitted;
  let arrivals = Array.of_list st.arrivals in
  let survivors = List.filter served report.S.sessions in
  let heap = heap_rows st.table in
  Rdb_storage.Buffer_pool.flush (Database.pool st.db);
  List.iter
    (fun (s : S.session_stats) ->
      let sp = arrivals.(s.S.s_id).Traffic.spec in
      let rows = S.rows_of st.sched s.S.s_id in
      (* the calm rerun: the same query alone, no scheduler, no peers *)
      let calm, _ = R.run ?limit:sp.Traffic.limit st.table (request_of sp) in
      if not (List.equal Row.equal rows calm) then
        fail "session %d (%s): rows differ from the calm rerun" s.S.s_id s.S.s_label;
      if sp.Traffic.limit = None && multiset rows <> oracle st.table heap sp then
        fail "session %d (%s): rows differ from the heap-scan oracle" s.S.s_id
          s.S.s_label)
    survivors;
  List.rev !errors

(* What a storm answered: each session's outcome and the multiset of its
   rows.  The scheduler runs on the grant clock, so a storm made from the
   same seed answers the same every time it runs. *)
let answers (st : storm) (report : S.report) =
  List.map
    (fun (s : S.session_stats) ->
      (s.S.s_id, s.S.s_outcome, multiset (S.rows_of st.sched s.S.s_id)))
    report.S.sessions

(* --- the run ---------------------------------------------------------- *)

let facts (st : storm) =
  Printf.sprintf
    "rows=%d heap_pages=%d index_nodes=%d pool_blocks=%d shards=%d ops_per_storm=%d \
     sessions in %d waves loop=open (grant-clock arrivals, one Session.run) clients=1"
    (Table.row_count st.table) (Table.page_count st.table) (index_nodes [ st.table ])
    pool_blocks shards sessions waves

(* A run cycles through [substorms] different storms made from the seed
   (data and arrivals alike), in whole rounds, so that its counts do not
   hinge on one storm's mix of sweeps, probes and deadlines. *)
let substorms = 3
let storm_seed seed k = (seed * substorms) + k

(* What the first round of storms keeps: counts that repeat exactly for
   a seed, and each storm's answers. *)
type counted = {
  mutable pools : S.pool_stats list;
  mutable charged : float list;  (** per session *)
  mutable words : float;  (** minor words during Session.run *)
  mutable rows : int;
  mutable sojourn : float list;  (** served sessions, grants *)
  mutable peak : float;  (** top heap after the first storm, MB *)
  first : (int * S.outcome * (int * int)) list array;  (** answers, per storm *)
}

let run ~seed ~seconds ~trace =
  let setup_times = Samples.create () and storm_s = Samples.create () in
  let run_s = ref 0.0 and grants = ref 0 and served_n = ref 0 and storms = ref 0 in
  (* the k = 0 storms alone, which the traced run repeats *)
  let k0_s = ref 0.0 and k0_served = ref 0 in
  let errors = ref [] in
  let c =
    {
      pools = [];
      charged = [];
      words = 0.0;
      rows = 0;
      sojourn = [];
      peak = 0.0;
      first = Array.make substorms [];
    }
  in
  (* untimed warm-up: one storm, so that the first timed storm and set-up
     do not run cold *)
  Gc.full_major ();
  ignore (S.run (fst (setup ~seed:(storm_seed seed 0) ~config)).sched);
  (* whole rounds of storms, until the storms have run [seconds] *)
  while !storms < substorms || not (!storms mod substorms = 0 && !run_s >= seconds) do
    let k = !storms mod substorms in
    Gc.full_major ();
    let st, setup_s = setup ~seed:(storm_seed seed k) ~config in
    Samples.add setup_times setup_s;
    if !storms = 0 then Printf.printf "workload storm: %s seed=%d\n%!" (facts st) seed;
    Gc.compact ();
    let w0 = minor_words () in
    let t0 = now () in
    let report = S.run st.sched in
    let dt = now () -. t0 in
    let words = minor_words () -. w0 in
    let served = report.S.pool.S.p_served in
    run_s := !run_s +. dt;
    Samples.add storm_s dt;
    grants := !grants + report.S.pool.S.p_grants;
    served_n := !served_n + served;
    if k = 0 then begin
      k0_s := !k0_s +. dt;
      k0_served := !k0_served + served
    end;
    (* checked between storms, outside any timed phase *)
    if !storms < substorms then begin
      c.pools <- report.S.pool :: c.pools;
      c.charged <- List.map (fun s -> s.S.s_charged) report.S.sessions @ c.charged;
      c.words <- c.words +. words;
      c.rows <- List.fold_left (fun a s -> a + s.S.s_rows) c.rows report.S.sessions;
      c.sojourn <- Array.to_list (sojourns st report) @ c.sojourn;
      (* before any check has run: the heap set-up and one storm need
         (the heap never shrinks, so later storms would read the checks) *)
      if !storms = 0 then c.peak <- peak_heap_mb ();
      errors := !errors @ check st report;
      c.first.(k) <- answers st report
    end
    else if answers st report <> c.first.(k) then
      errors :=
        !errors
        @ [ Printf.sprintf "storm %d: answers differ from its first run" !storms ];
    incr storms
  done;
  let pools = c.pools in
  let sum f = List.fold_left (fun a p -> a + f p) 0 pools in
  let submitted = sum (fun p -> p.S.p_submitted) in
  let soj = Array.of_list c.sojourn in
  let upg = !run_s *. 1e6 /. fi (max 1 !grants) in
  let qps = fi !served_n /. !run_s in
  print_times "storm Session.run seconds each" (Samples.to_array storm_s);
  print_times "storm setup_s each" (Samples.to_array setup_times);
  Printf.printf
    "storm: %d storms in %.3f s of Session.run (%.2f us per grant); counted %d storms: \
     %d served, %d shed, %d timed out of %d; sojourn p50 %.2f p99 %.2f grants (%d \
     served samples)\n"
    !storms !run_s upg substorms (sum (fun p -> p.S.p_served)) (sum (fun p -> p.S.p_shed))
    (sum (fun p -> p.S.p_timed_out)) submitted (grouped_percentile soj 0.5)
    (grouped_percentile soj 0.99) (Array.length soj);
  let e2e =
    [
      metric "setup_s" "s" (median (Samples.to_array setup_times));
      metric "throughput_qps" "ops/s" qps;
      (* a storm is one batch on the wall clock: its typical session takes
         the batch's wall time per served session (1e6 / throughput_qps);
         the tail is the open-loop sojourn, arrival tick to finish tick, at
         the run's wall time per grant *)
      metric "latency_p50_us" "us" (!run_s *. 1e6 /. fi (max 1 !served_n));
      metric "latency_p99_us" "us" (grouped_percentile soj 0.99 *. upg);
      metric "served_pct" "%" (100.0 *. fi (sum (fun p -> p.S.p_served)) /. fi submitted);
      metric "cost_per_op" "cost"
        (List.fold_left (fun a p -> a +. p.S.p_total_cost) 0.0 pools /. fi submitted);
      metric "cost_p99" "cost" (percentile (Array.of_list c.charged) 0.99);
      metric "alloc_words_per_row" "words" (c.words /. fi (max 1 c.rows));
      metric "peak_heap_mb" "MB" c.peak;
    ]
  in
  let errors = !errors and attempted = !storms * sessions in
  if not trace then (errors, attempted, e2e)
  else begin
    (* traced run: one more k = 0 storm with spans and the metrics
       registry, against the untraced k = 0 storms *)
    let l = Layers.create () in
    l.Layers.untraced_qps <- fi !k0_served /. !k0_s;
    Gc.full_major ();
    let reg = l.Layers.registry in
    let tconfig =
      {
        config with
        S.metrics = Some reg;
        retrieval = { R.default_config with R.metrics = Some reg };
      }
    in
    let st, _ = setup ~seed:(storm_seed seed 0) ~config:tconfig in
    let pool = Database.pool st.db in
    let tr = Spans.create (Rdb_storage.Buffer_pool.global_meter pool) in
    Rdb_storage.Buffer_pool.set_metrics pool (Some reg);
    Gc.compact ();
    let live0 = live_words () in
    let m = Layers.mark pool in
    let w0 = minor_words () in
    let report = span (Some tr) "session.run" (fun () -> S.run st.sched) in
    let words = minor_words () -. w0 in
    Layers.close_phase l pool m ~ops:report.S.pool.S.p_submitted;
    l.Layers.traced_qps <- ratio (fi report.S.pool.S.p_served) l.Layers.phase_s;
    Layers.snapshot_self l tr;
    Rdb_storage.Buffer_pool.set_metrics pool None;
    let errors =
      if answers st report <> c.first.(0) then
        errors @ [ "traced storm: answers differ from the untraced run" ]
      else errors
    in
    Probes.record_session l report ~seconds:l.Layers.phase_s ~words
      ~live:(live_words () - live0);
    List.iter
      (fun s -> Option.iter (Layers.add_summary l) s.S.s_summary)
      report.S.sessions;
    let arrivals = Array.of_list st.arrivals in
    let survivors =
      List.filteri
        (fun i _ -> i < 200)
        (List.filter_map
           (fun (s : S.session_stats) ->
             if served s then Some arrivals.(s.S.s_id).Traffic.spec else None)
           report.S.sessions)
    in
    Probes.index_probes l st.table
      (List.map
         (fun (sp : Traffic.spec) ->
           Probes.ranges_of st.table (Predicate.bind sp.Traffic.pred sp.Traffic.env))
         survivors);
    (* the scheduler holds the rows the live-heap reading counted *)
    ignore (Sys.opaque_identity st.sched);
    Bench.write_spans tr ~workload:"storm" ~seed;
    (errors, attempted, Layers.metrics l tr)
  end
