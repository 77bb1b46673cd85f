(* Tests for the fault injector and the degradation policies it
   drives: injector-off neutrality, rows-invariance under transient
   faults, quarantine / fallback / abort / quota policies with their
   trace events, and buffer-pool invariants under random fault/flush
   interleavings. *)

open Rdb_data
open Rdb_engine
open Rdb_exec
open Rdb_storage
module Btree = Rdb_btree.Btree
module Estimate = Rdb_btree.Estimate
module R = Rdb_core.Retrieval
module Executor = Rdb_sql.Executor

let check = Alcotest.(check bool)

let schema =
  Schema.make
    [
      Schema.col "ID" Value.T_int;
      Schema.col "X" Value.T_int;
      Schema.col "Y" Value.T_int;
      Schema.col "S" Value.T_str;
    ]

type fixture = { table : Table.t; pool : Buffer_pool.t }

let fixture ?(rows = 2000) ?(pool_capacity = 1024) ?(seed = 11) () =
  let pool = Buffer_pool.create ~capacity:pool_capacity () in
  let table = Table.create ~page_bytes:1024 pool ~name:"T" schema in
  let rng = Rdb_util.Prng.create ~seed in
  for i = 0 to rows - 1 do
    ignore
      (Table.insert table
         [|
           Value.int i;
           Value.int (Rdb_util.Prng.int rng 100);
           Value.int (Rdb_util.Prng.int rng 1000);
           Value.str (Printf.sprintf "s%05d" i);
         |])
  done;
  ignore (Table.create_index table ~name:"X_IDX" ~columns:[ "X" ] ());
  ignore (Table.create_index table ~name:"Y_IDX" ~columns:[ "Y" ] ());
  { table; pool }

let oracle f pred =
  let m = Cost.create () in
  let out = ref [] in
  Heap_file.iter (Table.heap f.table) m (fun _ row ->
      if Predicate.eval pred schema row then out := row :: !out);
  List.rev !out

let sort_rows rows = List.sort (fun a b -> Row.compare_at [| 0 |] a b) rows

let index_file f name =
  Btree.file_id (Option.get (Table.find_index f.table name)).Table.tree

let heap_file f = Heap_file.file_id (Table.heap f.table)

let has_event pred trace = List.exists pred trace

let degradation_event = function
  | Trace.Fault_detected _ | Trace.Index_quarantined _ | Trace.Fallback_tscan _ ->
      true
  | _ -> false

(* --- injector-off neutrality -------------------------------------------- *)

(* A pool carrying a null-plan injector must behave and cost exactly
   like a pool with no injector at all: the injector only turns charge
   points into fault points, it never adds charges of its own. *)
let test_null_injector_cost_identical () =
  let run with_injector =
    let f = fixture () in
    if with_injector then
      Buffer_pool.set_injector f.pool (Some (Fault.create Fault.null_plan));
    let open Predicate in
    let pred = And [ "X" <% Value.int 20; "Y" <% Value.int 400 ] in
    let rows, s = R.run f.table (R.request pred) in
    (sort_rows rows, s.R.total_cost, s.R.status)
  in
  let rows_off, cost_off, status_off = run false in
  let rows_on, cost_on, status_on = run true in
  check "rows identical" true (rows_off = rows_on);
  check "cost identical" true (cost_off = cost_on);
  check "both completed" true (status_off = R.Completed && status_on = R.Completed)

(* --- rows invariant under transient faults ------------------------------- *)

(* Transient faults perturb cost (retry penalties, interleave shifts)
   but never the result set: retries resume from unchanged scan
   positions.  Rates stay low enough that the bounded retry never
   spuriously escalates a heap fault into an abort. *)
let prop_transient_rows_invariant =
  QCheck.Test.make ~name:"rows invariant under transient faults" ~count:8
    QCheck.(pair (float_range 0.01 0.15) (int_range 1 1000))
    (fun (rate, seed) ->
      let f = fixture () in
      let open Predicate in
      let pred = And [ "X" <% Value.int 30; "Y" <% Value.int 500 ] in
      let expected = sort_rows (oracle f pred) in
      Buffer_pool.flush f.pool;
      let inj =
        Fault.create (Fault.plan ~transient_read_rate:rate ~seed ())
      in
      Buffer_pool.set_injector f.pool (Some inj);
      let rows, s = R.run f.table (R.request pred) in
      Buffer_pool.set_injector f.pool None;
      s.R.status = R.Completed && sort_rows rows = expected)

(* --- quarantine (background party) --------------------------------------- *)

(* A Jscan whose second index lives on a dead file: the first scan
   completes, the second faults persistently, [run] quarantines it and
   the competition finishes with what it has. *)
let test_jscan_quarantines_dead_index () =
  let f = fixture () in
  let open Predicate in
  let pred = And [ "X" =% Value.int 7; "Y" <% Value.int 300 ] in
  let candidate name =
    let idx = Option.get (Table.find_index f.table name) in
    let e = Range_extract.for_index pred idx in
    {
      Scan.idx;
      ranges = e.Range_extract.ranges;
      residual = e.Range_extract.residual;
      est =
        (let m = Cost.create () in
         (Estimate.ranges idx.Table.tree m e.Range_extract.ranges).Estimate.estimate);
      est_exact = false;
    }
  in
  (* Build candidates while the pool is healthy, then kill Y_IDX. *)
  let candidates = [ candidate "X_IDX"; candidate "Y_IDX" ] in
  Buffer_pool.flush f.pool;
  let inj =
    Fault.create
      (Fault.plan ~persistent_files:[ index_file f "Y_IDX" ] ~seed:1 ())
  in
  Buffer_pool.set_injector f.pool (Some inj);
  let m = Cost.create () in
  let trace = Trace.create () in
  let j = Jscan.create f.table m Jscan.default_config trace ~candidates in
  let outcome = Jscan.run j in
  Buffer_pool.set_injector f.pool None;
  check "quarantine traced" true
    (has_event
       (function Trace.Index_quarantined { index = "Y_IDX"; _ } -> true | _ -> false)
       (Trace.events trace));
  check "persistent fault recorded" true (Fault.injected_persistent inj > 0);
  (* The X scan's list survives; retrieving by it (with the residual
     re-checked on fetched rows) still yields exactly the oracle. *)
  match outcome with
  | Jscan.Recommend_tscan _ -> Alcotest.fail "healthy scan should have completed"
  | Jscan.Rid_list rids ->
      let m = Cost.create () in
      let fin =
        Final_stage.create f.table m ~rids ~restriction:pred
          ~exclude:(fun _ -> false)
      in
      let rows = ref [] in
      let rec drain () =
        match Final_stage.step fin with
        | Scan.Deliver (_, row) ->
            rows := row :: !rows;
            drain ()
        | Scan.Continue -> drain ()
        | Scan.Done -> ()
        | Scan.Failed fl -> raise (Fault.Injected fl)
      in
      drain ();
      check "rows match oracle after quarantine" true
        (sort_rows !rows = sort_rows (oracle f pred))

(* A full retrieval degrades around a dead index without the query
   ever failing, and says so in the trace. *)
let test_retrieval_survives_dead_index () =
  let f = fixture () in
  let open Predicate in
  let pred = And [ "X" <% Value.int 20; "Y" <% Value.int 400 ] in
  let expected = sort_rows (oracle f pred) in
  Buffer_pool.flush f.pool;
  let inj =
    Fault.create
      (Fault.plan ~persistent_files:[ index_file f "X_IDX" ] ~seed:2 ())
  in
  Buffer_pool.set_injector f.pool (Some inj);
  let rows, s = R.run f.table (R.request pred) in
  Buffer_pool.set_injector f.pool None;
  check "completed" true (s.R.status = R.Completed);
  check "rows match oracle" true (sort_rows rows = expected);
  check "degradation traced" true (has_event degradation_event s.R.trace);
  check "faults recorded" true (Fault.injected_persistent inj > 0)

(* --- corruption ---------------------------------------------------------- *)

let test_corrupt_leaf_detected_and_survived () =
  let f = fixture () in
  let tree = (Option.get (Table.find_index f.table "X_IDX")).Table.tree in
  let leaf = List.hd (Btree.leaf_blocks tree) in
  let open Predicate in
  let pred = "X" <% Value.int 15 in
  let expected = sort_rows (oracle f pred) in
  let inj =
    Fault.create
      (Fault.plan ~corrupt_blocks:[ (Btree.file_id tree, leaf) ] ~seed:3 ())
  in
  Buffer_pool.set_injector f.pool (Some inj);
  (* Checksums are lazily established: a first cold pass under the
     injector computes them (a freshly built leaf is dirty), a second
     cold pass verifies them — that is where the planned scramble
     fires. *)
  Buffer_pool.flush f.pool;
  ignore (R.run f.table (R.request pred));
  Buffer_pool.flush f.pool;
  let rows, s = R.run f.table (R.request pred) in
  Buffer_pool.set_injector f.pool None;
  check "completed" true (s.R.status = R.Completed);
  check "rows match oracle" true (sort_rows rows = expected);
  check "corruption detected" true (Fault.injected_corrupt inj >= 1);
  check "degradation traced" true (has_event degradation_event s.R.trace)

(* --- heap abort ---------------------------------------------------------- *)

let test_dead_heap_aborts_structurally () =
  let f = fixture () in
  Buffer_pool.flush f.pool;
  let inj =
    Fault.create (Fault.plan ~persistent_files:[ heap_file f ] ~seed:4 ())
  in
  Buffer_pool.set_injector f.pool (Some inj);
  let rows, s = R.run f.table (R.request Predicate.True) in
  Buffer_pool.set_injector f.pool None;
  check "no rows" true (rows = []);
  (match s.R.status with
  | R.Aborted _ -> ()
  | _ -> Alcotest.fail "dead heap must abort");
  check "abort traced" true
    (has_event (function Trace.Query_aborted _ -> true | _ -> false) s.R.trace)

(* --- spill exhaustion ----------------------------------------------------- *)

(* Temp-space exhaustion at a deterministic point: the smallest legal
   RID-list memory budget forces the background lists to spill, and a
   zero spill-write budget makes the very first spill-block write fail
   with [Spill_full] (competition checks are pushed out of the way so
   the scans actually complete and seal their lists).  Spill files
   back no structure, so the faulted lists are discarded and the
   retrieval falls back — never an abort: the rows still match the
   oracle. *)
let test_spill_exhaustion_falls_back () =
  let f = fixture () in
  let open Predicate in
  let pred = And [ "X" <% Value.int 30; "Y" <% Value.int 500 ] in
  let expected = sort_rows (oracle f pred) in
  Buffer_pool.flush f.pool;
  let inj = Fault.create (Fault.plan ~spill_write_budget:0 ~seed:5 ()) in
  Buffer_pool.set_injector f.pool (Some inj);
  let cfg =
    {
      R.default_config with
      R.jscan =
        {
          Jscan.default_config with
          Jscan.memory_budget = 20;
          check_every = 1_000_000;
        };
    }
  in
  let rows, s = R.run ~config:cfg f.table (R.request pred) in
  Buffer_pool.set_injector f.pool None;
  check "completed" true (s.R.status = R.Completed);
  check "rows match oracle" true (sort_rows rows = expected);
  check "spill exhaustion fired" true (Fault.injected_spill inj >= 1);
  check "degradation traced" true (has_event degradation_event s.R.trace)

(* --- corrupt heap exit ---------------------------------------------------- *)

(* A corrupt heap page aborts queries (no degradation path around the
   heap), but it is not an absorbing state: REPAIR TABLE rewrites the
   page — restamping its checksum from the live slots — after which
   queries complete and the heap is marked healthy again. *)
let test_corrupt_heap_healed_by_repair () =
  let db = Database.create ~pool_capacity:256 () in
  let pool = Database.pool db in
  let table = Database.create_table db ~page_bytes:1024 ~name:"T" schema in
  let rng = Rdb_util.Prng.create ~seed:11 in
  for i = 0 to 1999 do
    ignore
      (Table.insert table
         [|
           Value.int i;
           Value.int (Rdb_util.Prng.int rng 100);
           Value.int (Rdb_util.Prng.int rng 1000);
           Value.str (Printf.sprintf "s%05d" i);
         |])
  done;
  ignore (Table.create_index table ~name:"X_IDX" ~columns:[ "X" ] ());
  let open Predicate in
  let pred = "X" <% Value.int 15 in
  let expected =
    let m = Cost.create () in
    let out = ref [] in
    Heap_file.iter (Table.heap table) m (fun _ row ->
        if Predicate.eval pred schema row then out := row :: !out);
    sort_rows !out
  in
  let heap = Heap_file.file_id (Table.heap table) in
  let inj = Fault.create (Fault.plan ~corrupt_blocks:[ (heap, 0) ] ~seed:6 ()) in
  Buffer_pool.set_injector pool (Some inj);
  (* first cold pass stamps the lazily-established checksums; the
     second verifies them and hits the planned scramble *)
  Buffer_pool.flush pool;
  ignore (R.run table (R.request pred));
  Buffer_pool.flush pool;
  let rows, s = R.run table (R.request pred) in
  check "corrupt heap aborts" true
    (match s.R.status with R.Aborted _ -> true | _ -> false);
  check "no rows from aborted query" true (rows = []);
  check "corruption detected" true (Fault.injected_corrupt inj >= 1);
  (* the exit: REPAIR TABLE rewrites the page, with the injector still
     live — the scramble fires once, the rewrite heals it for good *)
  let r = Executor.execute_sql db "REPAIR TABLE T" in
  (match r.Executor.message with
  | Some m ->
      check "repair reports the rewrite" true
        (String.length m >= 7
        && (let rec has i =
              i + 7 <= String.length m
              && (String.sub m i 7 = "rewrote" || has (i + 1))
            in
            has 0))
  | None -> Alcotest.fail "REPAIR TABLE returned no message");
  Buffer_pool.flush pool;
  let rows, s = R.run table (R.request pred) in
  Buffer_pool.set_injector pool None;
  check "completed after repair" true (s.R.status = R.Completed);
  check "rows match oracle after repair" true (sort_rows rows = expected);
  check "heap healthy again" true
    (Health.state (Table.health table) Table.heap_structure = Health.Healthy)

(* --- the cost bound on a standalone cursor -------------------------------- *)

let test_deadline_stops_standalone_cursor () =
  let f = fixture () in
  (* Cold pool: the full scan must pay physical reads, so a tiny
     deadline is reached partway through the stream. *)
  Buffer_pool.flush f.pool;
  let deadline = 10.0 in
  let cfg = { R.default_config with R.deadline = Some deadline } in
  let rows, s = R.run ~config:cfg f.table (R.request Predicate.True) in
  (match s.R.status with
  | R.Timed_out { spent; deadline = d } ->
      check "reported deadline" true (d = deadline);
      check "spent at least the deadline" true (spent >= deadline)
  | _ -> Alcotest.fail "tiny deadline must time out");
  check "deadline traced" true
    (has_event (function Trace.Deadline_exceeded _ -> true | _ -> false) s.R.trace);
  (* a strict prefix of the unbounded run's stream *)
  let all, _ = R.run f.table (R.request Predicate.True) in
  let n = List.length rows in
  check "truncated" true (n < List.length all);
  check "prefix of the full stream" true (rows = List.filteri (fun i _ -> i < n) all)

(* --- a success resets the consecutive-fault count -------------------------- *)

(* A Tscan whose heap reads fail at scheduled accesses.  A retry re-reads
   the faulted page, so faults at two consecutive accesses are one page
   failing twice (attempts 1 then 2), while a fault on a later page comes
   after successful steps, which reset the count (attempt 1 twice). *)
let test_success_resets_fault_count () =
  let f = fixture () in
  let pred = Predicate.("ID" >=% Value.int 0) in
  let expected = sort_rows (oracle f pred) in
  let heap = heap_file f in
  let attempts schedule =
    Buffer_pool.flush f.pool;
    let inj =
      Fault.create
        (Fault.plan ~fail_at_access:(List.map (fun n -> (heap, n)) schedule) ~seed:1 ())
    in
    Buffer_pool.set_injector f.pool (Some inj);
    let rows, s = R.run f.table (R.request pred) in
    Buffer_pool.set_injector f.pool None;
    check "a Tscan" true (s.R.tactic = R.Static_tscan);
    check "completed" true (s.R.status = R.Completed);
    check "rows match the oracle" true (sort_rows rows = expected);
    List.filter_map
      (function Trace.Fault_retry { attempt; _ } -> Some attempt | _ -> None)
      s.R.trace
  in
  check "a multi-page heap" true (Heap_file.page_count (Table.heap f.table) > 8);
  Alcotest.(check (list int)) "faults on two pages" [ 1; 1 ] (attempts [ 3; 6 ]);
  Alcotest.(check (list int)) "a fault on the retry" [ 1; 2 ] (attempts [ 3; 4 ])

(* --- pool invariants under fault/flush interleavings ---------------------- *)

let prop_pool_invariants_under_faults =
  QCheck.Test.make ~name:"pool residency/meters under fault interleavings"
    ~count:6 QCheck.(int_range 1 1000)
    (fun seed ->
      let f = fixture ~rows:600 ~pool_capacity:64 () in
      let inj =
        Fault.create (Fault.plan ~transient_read_rate:0.1 ~seed ())
      in
      Buffer_pool.set_injector f.pool (Some inj);
      let rng = Rdb_util.Prng.create ~seed:(seed + 1) in
      let meter = Buffer_pool.global_meter f.pool in
      let last_phys = ref (Cost.physical_reads meter) in
      let last_log = ref (Cost.logical_reads meter) in
      let ok = ref true in
      let assert_invariants () =
        if Buffer_pool.resident f.pool > Buffer_pool.capacity f.pool then
          ok := false;
        let p = Cost.physical_reads meter and l = Cost.logical_reads meter in
        if p < !last_phys || l < !last_log then ok := false;
        last_phys := p;
        last_log := l
      in
      for _ = 1 to 12 do
        (match Rdb_util.Prng.int rng 4 with
        | 0 -> Buffer_pool.flush f.pool
        | 1 -> Buffer_pool.evict_file f.pool (heap_file f)
        | _ ->
            let open Predicate in
            let x = Rdb_util.Prng.int rng 80 in
            let rows, s =
              R.run f.table (R.request ("X" <% Value.int x))
            in
            if s.R.status <> R.Completed then ok := false;
            (* the oracle itself must run fault-free *)
            Buffer_pool.set_injector f.pool None;
            let expected = sort_rows (oracle f ("X" <% Value.int x)) in
            Buffer_pool.set_injector f.pool (Some inj);
            if sort_rows rows <> expected then ok := false);
        assert_invariants ()
      done;
      Buffer_pool.set_injector f.pool None;
      !ok)

let () =
  Alcotest.run "rdb_fault"
    [
      ( "injector",
        [
          Alcotest.test_case "null injector is cost-identical" `Quick
            test_null_injector_cost_identical;
          QCheck_alcotest.to_alcotest prop_transient_rows_invariant;
        ] );
      ( "degradation",
        [
          Alcotest.test_case "jscan quarantines dead index" `Quick
            test_jscan_quarantines_dead_index;
          Alcotest.test_case "retrieval survives dead index" `Quick
            test_retrieval_survives_dead_index;
          Alcotest.test_case "corrupt leaf detected and survived" `Quick
            test_corrupt_leaf_detected_and_survived;
          Alcotest.test_case "dead heap aborts structurally" `Quick
            test_dead_heap_aborts_structurally;
          Alcotest.test_case "spill exhaustion falls back" `Quick
            test_spill_exhaustion_falls_back;
          Alcotest.test_case "corrupt heap healed by REPAIR TABLE" `Quick
            test_corrupt_heap_healed_by_repair;
          Alcotest.test_case "deadline stops a standalone cursor" `Quick
            test_deadline_stops_standalone_cursor;
          Alcotest.test_case "a success resets the fault count" `Quick
            test_success_resets_fault_count;
        ] );
      ( "pool",
        [ QCheck_alcotest.to_alcotest prop_pool_invariants_under_faults ] );
    ]
