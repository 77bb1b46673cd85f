(* Properties of the multi-query session scheduler (Session):
   determinism (equal seeds and configs give byte-identical reports),
   result invariance under quantum size / admission order / in-flight
   degree, admission-control and starvation bounds, and the submit
   lifecycle. *)

open Rdb_data
open Rdb_engine
module R = Rdb_core.Retrieval
module S = Rdb_core.Session
module Goal = Rdb_core.Goal
module Datasets = Rdb_workload.Datasets
module Traffic = Rdb_workload.Traffic
module Prng = Rdb_util.Prng

let check = Alcotest.(check bool)

(* One shared read-only fixture; every schedule flushes the pool first,
   so successive runs are independent and reproducible. *)
let fixture =
  lazy
    (let db = Datasets.fresh_db ~pool_capacity:64 () in
     let table = Datasets.orders ~rows:6000 db in
     (db, table))

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

let run_schedule ?(record_events = false) db table specs ~max_inflight ~quantum =
  Rdb_storage.Buffer_pool.flush (Database.pool db);
  let cfg = { S.default_config with S.max_inflight; quantum; record_events } in
  let sched = S.create ~config:cfg db in
  let ids =
    List.map
      (fun sp ->
        ( sp,
          S.submit sched ~label:sp.Traffic.label ?limit:sp.Traffic.limit table
            (request_of sp) ))
      specs
  in
  (* sequence explicitly: tuple components evaluate right-to-left, and
     rows_of must run after the scheduler *)
  let report = S.run sched in
  (report, List.map (fun (sp, id) -> (sp, S.rows_of sched id)) ids)

(* LIMIT without ORDER BY may deliver any qualifying subset of the
   right size; everything else must match the oracle multiset. *)
let rows_ok table (sp : Traffic.spec) rows =
  let full = multiset (oracle table sp) in
  match sp.Traffic.limit with
  | None -> multiset rows = full
  | Some n ->
      List.length rows = min n (List.length full)
      && List.for_all (fun r -> List.mem (row_key r) full) rows

let quanta = [| 2.0; 25.0; 80.0; 500.0 |]

(* --- determinism ---------------------------------------------------- *)

let prop_deterministic =
  QCheck.Test.make ~name:"same seed and config give byte-identical reports"
    ~count:12
    QCheck.(triple (int_bound 100_000) (int_bound 3) (int_range 1 6))
    (fun (seed, qi, max_inflight) ->
      let max_inflight = max 1 max_inflight in
      let db, table = Lazy.force fixture in
      let specs = Traffic.orders_mix ~seed ~count:6 () in
      let quantum = quanta.(qi) in
      let run () =
        run_schedule ~record_events:true db table specs ~max_inflight ~quantum
      in
      let rep_a, rows_a = run () in
      let rep_b, rows_b = run () in
      S.report_to_string rep_a = S.report_to_string rep_b
      && List.for_all2
           (fun (_, ra) (_, rb) -> multiset ra = multiset rb)
           rows_a rows_b)

(* --- result invariance ---------------------------------------------- *)

let prop_rows_invariant =
  QCheck.Test.make
    ~name:"row sets invariant under quantum, in-flight degree, admission order"
    ~count:16
    QCheck.(triple (int_bound 100_000) (int_bound 3) (int_range 1 8))
    (fun (seed, qi, max_inflight) ->
      (* qcheck shrinking can step outside int_range bounds *)
      let max_inflight = max 1 max_inflight in
      let db, table = Lazy.force fixture in
      let specs = Traffic.orders_mix ~seed ~count:6 () in
      (* shuffled submission order: results must not depend on it *)
      let arr = Array.of_list specs in
      Prng.shuffle (Prng.create ~seed:(seed + 1)) arr;
      let shuffled = Array.to_list arr in
      let _, rows = run_schedule db table shuffled ~max_inflight ~quantum:quanta.(qi) in
      List.for_all
        (fun ((sp : Traffic.spec), rows) ->
          rows_ok table sp rows
          ||
          (Printf.printf "spec %s: got %d rows, oracle %d\n" sp.Traffic.label
             (List.length rows)
             (List.length (oracle table sp));
           false))
        rows)

(* --- bounds --------------------------------------------------------- *)

let test_bounds () =
  let db, table = Lazy.force fixture in
  let specs = Traffic.orders_mix ~seed:19 ~count:8 () in
  let report, _ = run_schedule db table specs ~max_inflight:3 ~quantum:30.0 in
  check "admission control holds" true (report.S.pool.S.p_max_inflight_seen <= 3);
  check "every session completed" true
    (List.for_all
       (fun s ->
         match s.S.s_summary with
         | Some summary -> summary.R.status = R.Completed
         | None -> false)
       report.S.sessions);
  (* all in flight at once: the starvation override bounds the gap *)
  let all_in, _ =
    run_schedule db table specs ~max_inflight:(List.length specs) ~quantum:10.0
  in
  List.iter
    (fun s ->
      check
        (Printf.sprintf "max grant gap bounded for %s (%d)" s.S.s_label s.S.s_max_gap)
        true
        (s.S.s_max_gap <= S.starvation_bound))
    all_in.S.sessions

let test_lifecycle () =
  let db, table = Lazy.force fixture in
  let sched = S.create db in
  let sp = List.hd (Traffic.orders_mix ~seed:3 ~count:1 ()) in
  let id = S.submit sched ~label:sp.Traffic.label table (request_of sp) in
  let _ = S.run sched in
  check "rows retrievable after run" true (S.rows_of sched id <> []);
  Alcotest.check_raises "submit after run rejected"
    (Invalid_argument "Session.submit: scheduler already ran") (fun () ->
      ignore (S.submit sched table (request_of sp)));
  Alcotest.check_raises "second run rejected"
    (Invalid_argument "Session.run: scheduler already ran") (fun () ->
      ignore (S.run sched));
  List.iter
    (fun (config, msg) ->
      Alcotest.check_raises "bad config rejected" (Invalid_argument msg) (fun () ->
          ignore (S.create ~config db)))
    [
      ({ S.default_config with S.max_inflight = 0 }, "Session.create: max_inflight < 1");
      ( { S.default_config with S.quantum = Float.nan },
        "Session.create: quantum nan is not > 0" );
      ( { S.default_config with S.crash_points = [ S.Crash_at_cost Float.nan ] },
        "Session.create: crash point Crash_at_cost nan" );
    ]

let product_one = R.request Predicate.("PRODUCT" =% Value.int 1)

(* A table built in another database reads through a pool the
   scheduler neither meters nor shards: refused at submission. *)
let test_foreign_table_rejected () =
  let db, _ = Lazy.force fixture in
  let other = Datasets.orders ~rows:2000 (Datasets.fresh_db ()) in
  let sched = S.create db in
  Alcotest.check_raises "query on another database's table"
    (Invalid_argument "Session.submit: table ORDERS is not in the scheduler's database")
    (fun () -> ignore (S.submit sched other product_one));
  Alcotest.check_raises "repair of another database's index"
    (Invalid_argument
       "Session.submit_repair: table ORDERS is not in the scheduler's database")
    (fun () -> ignore (S.submit_repair sched other ~index:"PROD_IDX"))

let test_negative_limit_rejected () =
  let db, table = Lazy.force fixture in
  Alcotest.check_raises "Retrieval.run"
    (Invalid_argument "Retrieval.run: negative limit -1") (fun () ->
      ignore (R.run ~limit:(-1) table product_one));
  Alcotest.check_raises "Session.submit"
    (Invalid_argument "Session.submit: negative limit -1") (fun () ->
      ignore (S.submit (S.create db) ~limit:(-1) table product_one))

(* A NaN deadline compares false against every charged cost, so it
   would switch the bound off. *)
let test_nan_deadline_rejected () =
  let db, table = Lazy.force fixture in
  let config = { R.default_config with R.deadline = Some Float.nan } in
  Alcotest.check_raises "Retrieval config"
    (Invalid_argument "Retrieval.open_: deadline is NaN") (fun () ->
      ignore (R.run ~config table product_one));
  Alcotest.check_raises "submit ?deadline"
    (Invalid_argument "Session.submit: deadline is NaN") (fun () ->
      ignore (S.submit (S.create db) ~deadline:Float.nan table product_one));
  Alcotest.check_raises "submit ?config"
    (Invalid_argument "Session.submit: deadline is NaN") (fun () ->
      ignore (S.submit (S.create db) ~config ~deadline:5.0 table product_one))

(* A NaN quota compares false both ways, so its admission rank would
   depend on its position in the queue. *)
let test_nan_quota_rejected () =
  let db, table = Lazy.force fixture in
  let sched = S.create db in
  Alcotest.check_raises "submit"
    (Invalid_argument "Session.submit: quota is NaN") (fun () ->
      ignore (S.submit sched ~quota:Float.nan table product_one));
  Alcotest.check_raises "submit_repair"
    (Invalid_argument "Session.submit_repair: quota is NaN") (fun () ->
      ignore (S.submit_repair sched ~quota:Float.nan table ~index:"PROD_IDX"))

let test_quota_admission_order () =
  let db, table = Lazy.force fixture in
  Rdb_storage.Buffer_pool.flush (Database.pool db);
  let specs = Traffic.orders_mix ~seed:23 ~count:5 () in
  let sched =
    S.create ~config:{ S.default_config with S.max_inflight = 1; S.record_events = true } db
  in
  let ids =
    List.mapi
      (fun i sp ->
        let quota = if i = List.length specs - 1 then Some 1.0e9 else None in
        S.submit sched ~label:sp.Traffic.label ?quota ?limit:sp.Traffic.limit table
          (request_of sp))
      specs
  in
  let report = S.run sched in
  let first_admitted =
    List.find_map
      (function S.Admitted { id; _ } -> Some id | _ -> None)
      report.S.events
  in
  check "quota-declaring query admitted first" true
    (first_admitted = Some (List.nth ids (List.length ids - 1)))

(* --- overload protection -------------------------------------------- *)

let row_list rows = List.map Row.to_string rows

(* The event stream agrees with the ledger: at most one [Finished] per
   id, carrying the session's outcome; none for a lost session, which
   the crash's [Crashed] counts instead; and the pool counters equal a
   recount over the sessions.  For query-only runs (a repair has no
   [s_outcome] to recount). *)
let ledger_agrees sched (r : S.report) =
  let finished =
    List.filter_map
      (function S.Finished { id; outcome; _ } -> Some (id, outcome) | _ -> None)
      r.S.events
  in
  (* rows: the kept count, what [rows_of] returns, and each query's
     [Finished] event agree; a lost session delivered nothing *)
  let rows_of_session id =
    Option.map (fun s -> s.S.s_rows) (List.find_opt (fun s -> s.S.s_id = id) r.S.sessions)
  in
  let rows_agree =
    List.for_all
      (fun s ->
        s.S.s_rows = List.length (S.rows_of sched s.S.s_id)
        && match s.S.s_outcome with S.Lost _ -> s.S.s_rows = 0 | _ -> true)
      r.S.sessions
    && List.for_all
         (function
           | S.Finished { id; rows; _ } -> (
               match rows_of_session id with Some n -> n = rows | None -> true)
           | _ -> true)
         r.S.events
  in
  let crash_lost =
    List.fold_left
      (fun acc -> function S.Crashed { lost; _ } -> acc + lost | _ -> acc)
      0 r.S.events
  in
  let ids = List.map fst finished in
  let p = r.S.pool in
  let count pred = List.length (List.filter (fun s -> pred s.S.s_outcome) r.S.sessions) in
  List.length (List.sort_uniq compare ids) = List.length ids
  && List.length finished + crash_lost = p.S.p_submitted
  && List.for_all
       (fun s ->
         match (s.S.s_outcome, List.assoc_opt s.S.s_id finished) with
         | S.Lost _, found -> found = None
         | o, found -> found = Some o)
       r.S.sessions
  && p.S.p_served = count (( = ) S.Served)
  && p.S.p_shed = count (function S.Shed _ -> true | _ -> false)
  && p.S.p_timed_out = count (function S.Timed_out _ -> true | _ -> false)
  && p.S.p_lost = count (function S.Lost _ -> true | _ -> false)
  && rows_agree

let submit_arrival sched table (a : Traffic.arrival) =
  let sp = a.Traffic.spec in
  S.submit sched ~label:sp.Traffic.label ?limit:sp.Traffic.limit
    ?quota:a.Traffic.quota ?deadline:a.Traffic.deadline
    ~arrive_at:a.Traffic.arrive_at table (request_of sp)

let overload_cfg =
  {
    S.default_config with
    S.max_inflight = 2;
    quantum = 10.0;
    max_queue = 3;
    shed_policy = S.Shed_largest_quota;
    pressure_threshold = 2;
  }

(* Each surviving session's rows (content and order) are identical
   whether or not its shed / timed-out peers were present: shedding
   changes which queries run, never the results of queries that run. *)
let prop_shed_isolation =
  QCheck.Test.make ~name:"survivor rows invariant under shed/timed-out peers"
    ~count:10
    QCheck.(int_bound 100_000)
    (fun seed ->
      let db, table = Lazy.force fixture in
      let arrivals = Traffic.storm ~seed ~count:16 () in
      Rdb_storage.Buffer_pool.flush (Database.pool db);
      let storm = S.create ~config:{ overload_cfg with S.record_events = true } db in
      let ids = List.map (submit_arrival storm table) arrivals in
      let report = S.run storm in
      let survivors =
        List.filter
          (fun (_, id) ->
            let s = List.find (fun s -> s.S.s_id = id) report.S.sessions in
            s.S.s_outcome = S.Served)
          (List.combine arrivals ids)
      in
      (* calm rerun: survivors only, no queue bound, no deadlines *)
      Rdb_storage.Buffer_pool.flush (Database.pool db);
      let calm = S.create ~config:{ S.default_config with S.max_inflight = 2 } db in
      let calm_ids =
        List.map
          (fun ((a : Traffic.arrival), _) ->
            let sp = a.Traffic.spec in
            S.submit calm ~label:sp.Traffic.label ?limit:sp.Traffic.limit table
              (request_of sp))
          survivors
      in
      let _ = S.run calm in
      ledger_agrees storm report
      && List.for_all2
        (fun (_, storm_id) calm_id ->
          row_list (S.rows_of storm storm_id) = row_list (S.rows_of calm calm_id))
        survivors calm_ids)

let test_deadline () =
  let db, table = Lazy.force fixture in
  Rdb_storage.Buffer_pool.flush (Database.pool db);
  let specs = Traffic.orders_mix ~seed:5 ~count:3 () in
  let expensive = List.hd specs and cheap = List.nth specs 1 in
  let sched = S.create db in
  (* deadline 0: timed out on arrival — no cursor, no quanta, no cost *)
  let zero = S.submit sched ~label:"zero" ~deadline:0.0 table (request_of expensive) in
  (* a deadline below any real plan's cost: cancelled at a grant
     boundary with the partial state kept *)
  let tight = S.submit sched ~label:"tight" ~deadline:4.0 table (request_of expensive) in
  let free = S.submit sched ~label:"free" table (request_of cheap) in
  let report = S.run sched in
  let stats id = List.find (fun s -> s.S.s_id = id) report.S.sessions in
  let z = stats zero in
  check "deadline 0 exits immediately" true
    (match z.S.s_outcome with S.Timed_out { spent; _ } -> spent = 0.0 | _ -> false);
  check "deadline 0 never ran" true
    (z.S.s_quanta = 0 && z.S.s_charged = 0.0 && z.S.s_summary = None);
  let t = stats tight in
  check "tight deadline times out" true
    (match t.S.s_outcome with S.Timed_out _ -> true | _ -> false);
  check "tight deadline has a Timed_out summary" true
    (match t.S.s_summary with
    | Some summary -> ( match summary.R.status with R.Timed_out _ -> true | _ -> false)
    | None -> false);
  check "spent at least the deadline" true
    (match t.S.s_outcome with
    | S.Timed_out { spent; deadline } -> spent >= deadline
    | _ -> false);
  check "undeadlined peer unaffected" true ((stats free).S.s_outcome = S.Served);
  check "accounting exact" true
    (report.S.pool.S.p_served + report.S.pool.S.p_shed + report.S.pool.S.p_timed_out
    = report.S.pool.S.p_submitted)

(* The cursor's cost bound joins the grant loop's stop check, which
   runs right after the step that spends the quantum: a deadline reached
   on that very step times out in the same grant — same tick, no extra
   quantum. *)
let test_deadline_on_quantum_step () =
  let db, table = Lazy.force fixture in
  let pool = Database.pool db in
  let quantum = 10.0 in
  let req = R.request Predicate.True in
  (* calibrate on a bare cursor: the spent cost after each of the first
     two grants a lone session would get *)
  Rdb_storage.Buffer_pool.flush pool;
  let c = R.open_ table req in
  let grant () =
    let r =
      R.grant c ~budget:quantum ~max_steps:S.max_steps_per_quantum
        ~stop:(fun () -> false) ~on_row:ignore
    in
    check "calibration grant pauses" true (r = `Paused);
    R.spent c
  in
  let s1 = grant () in
  let s2 = grant () in
  ignore (R.close c);
  check "the second grant ends on its quantum" true (s2 -. s1 >= quantum);
  Rdb_storage.Buffer_pool.flush pool;
  let sched =
    S.create ~config:{ S.default_config with S.quantum; S.record_events = true } db
  in
  let id = S.submit sched ~deadline:s2 table req in
  let report = S.run sched in
  let st = List.hd report.S.sessions in
  check "timed out at the deadline" true
    (st.S.s_outcome = S.Timed_out { deadline = s2; spent = s2 });
  check "no extra quantum" true (st.S.s_quanta = 2 && report.S.pool.S.p_grants = 2);
  check "timed out in the same grant" true
    (List.exists
       (function
         | S.Finished { id = i; tick; outcome = S.Timed_out { spent; deadline }; _ } ->
             i = id && tick = 2 && spent = s2 && deadline = s2
         | _ -> false)
       report.S.events);
  check "deadline traced once" true
    (match st.S.s_summary with
    | Some sm ->
        List.length
          (List.filter
             (function Rdb_exec.Trace.Deadline_exceeded _ -> true | _ -> false)
             sm.R.trace)
        = 1
    | None -> false)

(* A caller's stop ranks before the cost bound: a LIMIT reached on the
   same step as the deadline, or on a step that overshoots it, ends the
   session Served with status Completed. *)
let test_limit_at_deadline_served () =
  let db, table = Lazy.force fixture in
  let pool = Database.pool db in
  let req = R.request Predicate.True in
  let limit = 5 in
  (* calibrate one quantum at a time: the spent cost just before and
     right after the step that delivers the LIMIT-th row *)
  Rdb_storage.Buffer_pool.flush pool;
  let c = R.open_ table req in
  let delivered = ref 0 in
  let rec walk () =
    let before = R.spent c in
    ignore
      (R.grant c ~budget:infinity ~max_steps:1 ~stop:(fun () -> false) ~on_row:(fun _ ->
           incr delivered));
    if !delivered >= limit then (before, R.spent c) else walk ()
  in
  let before, at = walk () in
  ignore (R.close c);
  check "the LIMIT step charges" true (before < at);
  List.iter
    (fun deadline ->
      Rdb_storage.Buffer_pool.flush pool;
      let sched = S.create db in
      let id = S.submit sched ~limit ~deadline table req in
      let report = S.run sched in
      let st = List.hd report.S.sessions in
      check "served" true (st.S.s_outcome = S.Served);
      check "status completed" true
        (match st.S.s_summary with Some sm -> sm.R.status = R.Completed | None -> false);
      check "LIMIT rows delivered" true (List.length (S.rows_of sched id) = limit))
    [ at; (before +. at) /. 2.0 ]

(* [submit ?deadline] and the query config's deadline are one bound:
   when both are given, the tighter wins. *)
let test_tighter_deadline_wins () =
  let db, table = Lazy.force fixture in
  Rdb_storage.Buffer_pool.flush (Database.pool db);
  let req = R.request Predicate.True in
  let with_deadline d = { R.default_config with R.deadline = Some d } in
  let sched = S.create db in
  let _ = S.submit sched ~config:(with_deadline 1.0e9) ~deadline:4.0 table req in
  let _ = S.submit sched ~config:(with_deadline 4.0) ~deadline:1.0e9 table req in
  let report = S.run sched in
  List.iter
    (fun st ->
      check "timed out at the tighter deadline" true
        (match st.S.s_outcome with
        | S.Timed_out { deadline; _ } -> deadline = 4.0
        | _ -> false))
    report.S.sessions

(* Explicitly-neutral overload knobs reproduce the default scheduler
   bit-for-bit: an unbounded queue never sheds, an infinite pressure
   threshold never degrades, and the shed policy is then irrelevant. *)
let test_neutral_knobs () =
  let db, table = Lazy.force fixture in
  let specs = Traffic.orders_mix ~seed:31 ~count:8 () in
  let report_d, rows_d =
    run_schedule ~record_events:true db table specs ~max_inflight:3 ~quantum:30.0
  in
  Rdb_storage.Buffer_pool.flush (Database.pool db);
  let cfg =
    {
      S.default_config with
      S.max_inflight = 3;
      quantum = 30.0;
      record_events = true;
      max_queue = max_int;
      shed_policy = S.Shed_largest_quota;
      pressure_threshold = max_int;
    }
  in
  let sched = S.create ~config:cfg db in
  let ids =
    List.map
      (fun sp ->
        ( sp,
          S.submit sched ~label:sp.Traffic.label ?limit:sp.Traffic.limit table
            (request_of sp) ))
      specs
  in
  let report_n = S.run sched in
  check "byte-identical reports" true
    (S.report_to_string report_d = S.report_to_string report_n);
  List.iter2
    (fun (_, rows) (_, id) ->
      check "identical rows" true (row_list rows = row_list (S.rows_of sched id)))
    rows_d ids

let test_shed_policies () =
  let db, table = Lazy.force fixture in
  let specs = Traffic.orders_mix ~seed:11 ~count:4 () in
  let quotas = [ None; Some 10.0; Some 500.0; Some 50.0 ] in
  let run policy =
    Rdb_storage.Buffer_pool.flush (Database.pool db);
    let cfg =
      {
        S.default_config with
        S.max_inflight = 1;
        max_queue = 1;
        shed_policy = policy;
      }
    in
    let sched = S.create ~config:cfg db in
    let _ =
      List.map2
        (fun sp quota ->
          S.submit sched ~label:sp.Traffic.label ?limit:sp.Traffic.limit ?quota table
            (request_of sp))
        specs quotas
    in
    let report = S.run sched in
    List.map (fun s -> s.S.s_outcome) report.S.sessions
  in
  let is_shed = function S.Shed _ -> true | _ -> false in
  (* Admission takes q1 (quota 10, smallest); queue of 3 exceeds
     max_queue 1.  Largest-quota sheds the unbounded q0 then q2 (500);
     newest sheds q3 then q2. *)
  check "largest-quota sheds unbounded and largest" true
    (List.map is_shed (run S.Shed_largest_quota) = [ true; false; true; false ]);
  check "newest sheds the most recent arrivals" true
    (List.map is_shed (run S.Shed_newest) = [ false; false; true; true ])

(* --- buffer-pool sharding ------------------------------------------- *)

(* Sharding steers contention, never results: the same storm run under
   different buffer-pool shard counts keeps accounting exact in every
   run and serves byte-identical rows (content and order) for every
   session served under both counts.  Costs differ across shard counts
   — eviction order is per-shard — so the outcome *sets* may differ at
   the margin; invariance is over the common survivors. *)
let prop_shard_count_invariance =
  QCheck.Test.make
    ~name:"accounting exact and rows invariant across random shard counts"
    ~count:8
    QCheck.(pair (int_bound 100_000) (int_range 2 8))
    (fun (seed, shards) ->
      (* qcheck shrinking can step outside int_range bounds *)
      let shards = max 2 (min 8 shards) in
      let db, table = Lazy.force fixture in
      let pool = Database.pool db in
      let run n =
        Rdb_storage.Buffer_pool.flush pool;
        let cfg = { overload_cfg with S.pool_shards = Some n; record_events = true } in
        let sched = S.create ~config:cfg db in
        let arrivals = Traffic.storm ~seed ~count:20 () in
        let ids = List.map (submit_arrival sched table) arrivals in
        let report = S.run sched in
        let sessions =
          List.map
            (fun id ->
              let s = List.find (fun s -> s.S.s_id = id) report.S.sessions in
              (s.S.s_outcome = S.Served, row_list (S.rows_of sched id)))
            ids
        in
        (sched, report, sessions)
      in
      let sched_1, rep_1, sess_1 = run 1 in
      let sched_n, rep_n, sess_n = run shards in
      (* restore the shared fixture to its single-shard shape *)
      Rdb_storage.Buffer_pool.reshard pool ~shards:1;
      let exact (r : S.report) =
        r.S.pool.S.p_served + r.S.pool.S.p_shed + r.S.pool.S.p_timed_out
        = r.S.pool.S.p_submitted
      in
      exact rep_1 && exact rep_n
      && ledger_agrees sched_1 rep_1
      && ledger_agrees sched_n rep_n
      && rep_1.S.pool.S.p_shards = 1
      && rep_n.S.pool.S.p_shards = shards
      && List.for_all2
           (fun (served_1, rows_1) (served_n, rows_n) ->
             (not (served_1 && served_n)) || rows_1 = rows_n)
           sess_1 sess_n)

(* [pool_shards = Some 1] must reproduce the untouched monolithic pool
   bit-for-bit: same report text (no shard line), same rows. *)
let test_single_shard_identity () =
  let db, table = Lazy.force fixture in
  let pool = Database.pool db in
  Rdb_storage.Buffer_pool.reshard pool ~shards:1;
  let arrivals = Traffic.storm ~seed:7 ~count:16 () in
  let run pool_shards =
    Rdb_storage.Buffer_pool.flush pool;
    let cfg = { overload_cfg with S.pool_shards; S.record_events = true } in
    let sched = S.create ~config:cfg db in
    let ids = List.map (submit_arrival sched table) arrivals in
    let report = S.run sched in
    (report, List.map (fun id -> row_list (S.rows_of sched id)) ids)
  in
  let rep_none, rows_none = run None in
  let rep_one, rows_one = run (Some 1) in
  check "reports byte-identical" true
    (S.report_to_string rep_none = S.report_to_string rep_one);
  check "rows identical" true (rows_none = rows_one);
  check "single-shard pool stats" true
    (rep_one.S.pool.S.p_shards = 1
    && rep_one.S.pool.S.p_lookup_balance = 1.0
    && Array.length rep_one.S.pool.S.p_shard_lookups = 1)

(* Dropping background refinement is cost-only: rows and their order
   are invariant — the contract graceful degradation relies on. *)
let test_bgr_invariance () =
  let _, table = Lazy.force fixture in
  List.iter
    (fun seed ->
      List.iter
        (fun (sp : Traffic.spec) ->
          if sp.Traffic.limit = None then begin
            let run bgr =
              let cfg = { R.default_config with R.bgr_enabled = bgr } in
              fst (R.run ~config:cfg table (request_of sp))
            in
            check
              (Printf.sprintf "rows invariant under bgr for %s" sp.Traffic.label)
              true
              (row_list (run true) = row_list (run false))
          end)
        (Traffic.orders_mix ~seed ~count:6 ()))
    [ 2; 13; 47 ]

(* --- crash injection ------------------------------------------------- *)

(* A crash point that never fires must reproduce the crash-free
   scheduler bit-for-bit: the crash machinery is pure bookkeeping
   until a point actually triggers. *)
let test_crash_never_fires_identity () =
  let db, table = Lazy.force fixture in
  let specs = Traffic.orders_mix ~seed:17 ~count:6 () in
  let run points =
    Rdb_storage.Buffer_pool.flush (Database.pool db);
    let cfg =
      {
        S.default_config with
        S.max_inflight = 2;
        quantum = 30.0;
        record_events = true;
        crash_points = points;
      }
    in
    let sched = S.create ~config:cfg db in
    let ids =
      List.map
        (fun sp ->
          S.submit sched ~label:sp.Traffic.label ?limit:sp.Traffic.limit table
            (request_of sp))
        specs
    in
    let report = S.run sched in
    (S.report_to_string report, List.map (fun id -> row_list (S.rows_of sched id)) ids)
  in
  let rep_none, rows_none = run [] in
  let rep_far, rows_far = run [ S.Crash_at_grant max_int ] in
  check "report byte-identical" true (rep_none = rep_far);
  check "rows identical" true (rows_none = rows_far);
  check "no crash line" true
    (not
       (let m = rep_none in
        let rec has i =
          i + 6 <= String.length m && (String.sub m i 6 = "crash:" || has (i + 1))
        in
        has 0))

(* A mid-run crash loses every non-terminal submission — rows, cursors
   and progress vanish; terminal outcomes stand — and the report keeps
   exact accounting with the [lost] term. *)
let test_crash_loses_nonterminal () =
  let db, table = Lazy.force fixture in
  let specs = Traffic.orders_mix ~seed:23 ~count:8 () in
  Rdb_storage.Buffer_pool.flush (Database.pool db);
  let cfg =
    {
      S.default_config with
      S.max_inflight = 2;
      quantum = 2.0;
      record_events = true;
      S.crash_points = [ S.Crash_at_grant 12 ];
    }
  in
  let sched = S.create ~config:cfg db in
  let ids =
    List.map
      (fun sp ->
        S.submit sched ~label:sp.Traffic.label ?limit:sp.Traffic.limit table
          (request_of sp))
      specs
  in
  let report = S.run sched in
  let p = report.S.pool in
  check "crash tick recorded" true (p.S.p_crash_tick = Some 12);
  check "some submissions lost" true (p.S.p_lost > 0);
  check "accounting exact with lost" true
    (p.S.p_served + p.S.p_shed + p.S.p_timed_out + p.S.p_lost = p.S.p_submitted);
  check "crash event emitted" true
    (List.exists (function S.Crashed _ -> true | _ -> false) report.S.events);
  check "lost sessions keep no rows" true
    (List.for_all
       (fun id ->
         let s = List.find (fun s -> s.S.s_id = id) report.S.sessions in
         match s.S.s_outcome with
         | S.Lost _ -> S.rows_of sched id = [] && s.S.s_summary = None
         | _ -> true)
       ids);
  check "crash line rendered" true
    (let m = S.report_to_string report in
     let needle = "crash: process died at grant 12" in
     let n = String.length needle in
     let rec has i = i + n <= String.length m && (String.sub m i n = needle || has (i + 1)) in
     has 0)

(* [Crash_at_cost] fires at the first grant boundary at which the
   run's charged cost reaches the threshold. *)
let test_crash_at_cost () =
  let db, table = Lazy.force fixture in
  let specs = Traffic.orders_mix ~seed:29 ~count:6 () in
  Rdb_storage.Buffer_pool.flush (Database.pool db);
  let cfg =
    { S.default_config with S.quantum = 2.0; S.crash_points = [ S.Crash_at_cost 20.0 ] }
  in
  let sched = S.create ~config:cfg db in
  List.iter
    (fun sp ->
      ignore
        (S.submit sched ~label:sp.Traffic.label ?limit:sp.Traffic.limit table
           (request_of sp)))
    specs;
  let report = S.run sched in
  let p = report.S.pool in
  check "cost crash fired" true (p.S.p_crash_tick <> None);
  check "accounting exact" true
    (p.S.p_served + p.S.p_shed + p.S.p_timed_out + p.S.p_lost = p.S.p_submitted)

let prop_crash_accounting =
  QCheck.Test.make ~name:"accounting exact under random crash grants" ~count:10
    QCheck.(pair (int_bound 100_000) (int_range 1 60))
    (fun (seed, g) ->
      let g = max 1 (min 60 g) in
      let db, table = Lazy.force fixture in
      Rdb_storage.Buffer_pool.flush (Database.pool db);
      let cfg =
        {
          S.default_config with
          S.max_inflight = 3;
          quantum = 2.0;
          record_events = true;
          S.crash_points = [ S.Crash_at_grant g ];
        }
      in
      let sched = S.create ~config:cfg db in
      List.iter
        (fun sp ->
          ignore
            (S.submit sched ~label:sp.Traffic.label ?limit:sp.Traffic.limit table
               (request_of sp)))
        (Traffic.orders_mix ~seed ~count:6 ());
      let rep = S.run sched in
      let p = rep.S.pool in
      p.S.p_served + p.S.p_shed + p.S.p_timed_out + p.S.p_lost = p.S.p_submitted
      && (match p.S.p_crash_tick with
         | Some t -> t >= g
         | None -> p.S.p_lost = 0)
      && ledger_agrees sched rep)

let () =
  Alcotest.run "rdb_session"
    [
      ( "scheduler",
        [
          QCheck_alcotest.to_alcotest prop_deterministic;
          QCheck_alcotest.to_alcotest prop_rows_invariant;
          Alcotest.test_case "admission and starvation bounds" `Quick test_bounds;
          Alcotest.test_case "lifecycle guards" `Quick test_lifecycle;
          Alcotest.test_case "quota-aware admission order" `Quick
            test_quota_admission_order;
          Alcotest.test_case "table from another database rejected" `Quick
            test_foreign_table_rejected;
          Alcotest.test_case "negative limit rejected" `Quick test_negative_limit_rejected;
          Alcotest.test_case "NaN deadline rejected" `Quick test_nan_deadline_rejected;
          Alcotest.test_case "NaN quota rejected" `Quick test_nan_quota_rejected;
        ] );
      ( "overload",
        [
          QCheck_alcotest.to_alcotest prop_shed_isolation;
          Alcotest.test_case "cost deadlines" `Quick test_deadline;
          Alcotest.test_case "quantum-step deadline, same grant" `Quick
            test_deadline_on_quantum_step;
          Alcotest.test_case "LIMIT at the deadline is served" `Quick
            test_limit_at_deadline_served;
          Alcotest.test_case "the tighter deadline wins" `Quick
            test_tighter_deadline_wins;
          Alcotest.test_case "neutral knobs reproduce default behavior" `Quick
            test_neutral_knobs;
          Alcotest.test_case "shed policies pick the right victims" `Quick
            test_shed_policies;
          Alcotest.test_case "bgr degradation is rows-invariant" `Quick
            test_bgr_invariance;
        ] );
      ( "sharding",
        [
          QCheck_alcotest.to_alcotest prop_shard_count_invariance;
          Alcotest.test_case "pool_shards = Some 1 is byte-identical to None"
            `Quick test_single_shard_identity;
        ] );
      ( "crash",
        [
          Alcotest.test_case "never-firing crash point is byte-identical" `Quick
            test_crash_never_fires_identity;
          Alcotest.test_case "crash loses non-terminal submissions" `Quick
            test_crash_loses_nonterminal;
          Alcotest.test_case "crash at cost threshold" `Quick test_crash_at_cost;
          QCheck_alcotest.to_alcotest prop_crash_accounting;
        ] );
    ]
