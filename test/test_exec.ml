(* Tests for the scan strategies: every strategy must produce the same
   qualifying row set, plus Jscan-specific behaviours (intersection,
   competition discards, Tscan recommendation, borrowing, hybrid
   storage) and the final stage. *)

open Rdb_btree
open Rdb_data
open Rdb_engine
open Rdb_exec

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let schema =
  Schema.make
    [
      Schema.col "ID" Value.T_int;
      Schema.col "X" Value.T_int;
      Schema.col "Y" Value.T_int;
      Schema.col "S" Value.T_str;
    ]

type fixture = { table : Table.t; pool : Rdb_storage.Buffer_pool.t }

let fixture ?(rows = 3000) ?(pool_capacity = 2048) ?(seed = 3) () =
  let pool = Rdb_storage.Buffer_pool.create ~capacity:pool_capacity () in
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
  let m = Rdb_storage.Cost.create () in
  let out = ref [] in
  Rdb_storage.Heap_file.iter (Table.heap f.table) m (fun rid row ->
      if Predicate.eval pred schema row then out := rid :: !out);
  List.sort Rid.compare !out

let candidate_for f idx_name pred =
  let idx = Option.get (Table.find_index f.table idx_name) in
  let e = Range_extract.for_index pred idx in
  {
    Scan.idx;
    ranges = e.Range_extract.ranges;
    residual = e.Range_extract.residual;
    est =
      (let m = Rdb_storage.Cost.create () in
       (Estimate.ranges idx.Table.tree m e.Range_extract.ranges).Estimate.estimate);
    est_exact = false;
  }

let drain step_fn =
  let out = ref [] in
  let rec loop () =
    match step_fn () with
    | Scan.Deliver (rid, _) ->
        out := rid :: !out;
        loop ()
    | Scan.Continue -> loop ()
    | Scan.Done -> List.sort Rid.compare !out
    | Scan.Failed f -> raise (Rdb_storage.Fault.Injected f)
  in
  loop ()

(* --- three-valued logic at the scans ----------------------------------------- *)

(* Tscan tests each stored row and Sscan/Fscan each index key, through
   the compiled restriction; with NULLs in the data every
   scan must keep exactly the rows the reference interpreter keeps. *)
let null_schema =
  Schema.make
    [
      Schema.col "ID" Value.T_int;
      Schema.col ~nullable:true "B" Value.T_int;
      Schema.col ~nullable:true "S" Value.T_str;
    ]

let test_scans_keep_three_valued_logic () =
  let pool = Rdb_storage.Buffer_pool.create ~capacity:256 () in
  let table = Table.create ~page_bytes:1024 pool ~name:"N" null_schema in
  for i = 0 to 599 do
    ignore
      (Table.insert table
         [|
           Value.int i;
           (if i mod 4 = 0 then Value.Null else Value.int (i mod 10));
           (if i mod 3 = 0 then Value.Null else Value.str (Printf.sprintf "s%d" (i mod 7)));
         |])
  done;
  let idx = Table.create_index table ~name:"B_IDX" ~columns:[ "B" ] () in
  let m = Rdb_storage.Cost.create () in
  let reference pred =
    let out = ref [] in
    Rdb_storage.Heap_file.iter (Table.heap table) m (fun rid row ->
        if Predicate.eval pred null_schema row then out := rid :: !out);
    List.sort Rid.compare !out
  in
  let open Predicate in
  let b_in_1_null = In_list ("B", [ Const (Value.int 1); Const Value.Null ]) in
  let b_from_null = Between ("B", Const Value.Null, Const (Value.int 5)) in
  List.iter
    (fun (label, pred) ->
      let expect = reference pred in
      let cand =
        { Scan.idx; ranges = [ Btree.full_range ]; residual = pred; est = 0.0;
          est_exact = false }
      in
      let tscan = Tscan.create table m pred in
      check (label ^ ": tscan") true (drain (fun () -> Tscan.step tscan) = expect);
      let fscan = Fscan.create table m cand ~restriction:pred in
      check (label ^ ": fscan") true (drain (fun () -> Fscan.step fscan) = expect);
      if columns pred = [ "B" ] then begin
        let sscan = Sscan.create table m cand ~restriction:pred in
        check (label ^ ": sscan") true (drain (fun () -> Sscan.step sscan) = expect)
      end)
    [
      ("B = 3", "B" =% Value.int 3);
      ("NOT B = 3", Not ("B" =% Value.int 3));
      ("B IS NULL", Is_null "B");
      ("B IN (1, NULL)", b_in_1_null);
      ("NOT B IN (1, NULL)", Not b_in_1_null);
      ("B BETWEEN NULL AND 5", b_from_null);
      ("NOT B BETWEEN NULL AND 5", Not b_from_null);
      ("S LIKE 's1%' OR B > 7", Or [ Like ("S", "s1%"); "B" >% Value.int 7 ]);
      ("NOT S LIKE 's1%'", Not (Like ("S", "s1%")));
    ]

(* --- tscan --------------------------------------------------------------- *)

let test_tscan_matches_oracle () =
  let f = fixture () in
  let open Predicate in
  let pred = And [ "X" >=% Value.int 20; "X" <% Value.int 40 ] in
  let m = Rdb_storage.Cost.create () in
  let t = Tscan.create f.table m pred in
  check "same rids" true (drain (fun () -> Tscan.step t) = oracle f pred);
  check_int "examined all" (Table.row_count f.table) (Tscan.examined t)

let test_tscan_cost_is_flat () =
  let f = fixture () in
  Rdb_storage.Buffer_pool.flush f.pool;
  let m = Rdb_storage.Cost.create () in
  let t = Tscan.create f.table m Predicate.True in
  ignore (drain (fun () -> Tscan.step t));
  check_int "page reads" (Table.page_count f.table) (Rdb_storage.Cost.physical_reads m)

(* --- sscan --------------------------------------------------------------- *)

let test_sscan_matches_oracle () =
  let f = fixture () in
  let open Predicate in
  let pred = And [ "X" >=% Value.int 20; "X" <% Value.int 40 ] in
  let m = Rdb_storage.Cost.create () in
  let s = Sscan.create f.table m (candidate_for f "X_IDX" pred) ~restriction:pred in
  check "same rids" true (drain (fun () -> Sscan.step s) = oracle f pred)

let test_sscan_never_touches_heap () =
  let f = fixture () in
  Rdb_storage.Buffer_pool.flush f.pool;
  let open Predicate in
  let pred = "X" <% Value.int 50 in
  let m = Rdb_storage.Cost.create () in
  let s = Sscan.create f.table m (candidate_for f "X_IDX" pred) ~restriction:pred in
  ignore (drain (fun () -> Sscan.step s));
  (* All block reads must be index blocks: with a flushed pool the heap
     would add page_count reads; we verify reads are below that. *)
  let idx = Option.get (Table.find_index f.table "X_IDX") in
  let max_index_reads = Btree.node_count idx.Table.tree + 5 in
  check "only index reads" true (Rdb_storage.Cost.physical_reads m <= max_index_reads)

let test_sscan_rejects_non_covering () =
  let f = fixture () in
  let open Predicate in
  let pred = "S" =% Value.str "nope" in
  check "raises" true
    (try
       ignore (Sscan.create f.table (Rdb_storage.Cost.create ())
                 (candidate_for f "X_IDX" ("X" <% Value.int 5)) ~restriction:pred);
       false
     with Invalid_argument _ -> true)

(* --- fscan --------------------------------------------------------------- *)

let test_fscan_matches_oracle_in_index_order () =
  let f = fixture () in
  let open Predicate in
  let pred = And [ "X" >=% Value.int 10; "X" <=% Value.int 12; "Y" <% Value.int 500 ] in
  let m = Rdb_storage.Cost.create () in
  let fs = Fscan.create f.table m (candidate_for f "X_IDX" pred) ~restriction:pred in
  let delivered = ref [] in
  let rec loop () =
    match Fscan.step fs with
    | Scan.Deliver (rid, row) ->
        delivered := (rid, row) :: !delivered;
        loop ()
    | Scan.Continue -> loop ()
    | Scan.Done -> ()
    | Scan.Failed f -> raise (Rdb_storage.Fault.Injected f)
  in
  loop ();
  let rids = List.sort Rid.compare (List.map fst !delivered) in
  check "same rids" true (rids = oracle f pred);
  (* Delivery order must follow the X index. *)
  let xs =
    List.rev_map (fun (_, row) -> match Row.get row 1 with Value.Int x -> x | _ -> -1)
      !delivered
  in
  let rec non_decreasing = function
    | a :: b :: r -> a <= b && non_decreasing (b :: r)
    | _ -> true
  in
  check "index order" true (non_decreasing xs)

let test_fscan_filter_saves_fetches () =
  let f = fixture () in
  let open Predicate in
  let pred = "X" =% Value.int 5 in
  let m = Rdb_storage.Cost.create () in
  let fs = Fscan.create f.table m (candidate_for f "X_IDX" pred) ~restriction:pred in
  (* Attach an empty filter: every fetch is then skipped. *)
  Fscan.set_filter fs (Rdb_rid.Filter.of_sorted_array [||]);
  let rids = drain (fun () -> Fscan.step fs) in
  check_int "nothing delivered" 0 (List.length rids);
  check_int "no fetches" 0 (Fscan.fetched fs);
  check "skips counted" true (Fscan.saved_by_filter fs > 0)

let test_fscan_counts_wasted_fetches () =
  let f = fixture () in
  let open Predicate in
  (* Residual on Y rejects ~half after the fetch. *)
  let pred = And [ "X" =% Value.int 5; "Y" <% Value.int 500 ] in
  let m = Rdb_storage.Cost.create () in
  let fs = Fscan.create f.table m (candidate_for f "X_IDX" pred) ~restriction:pred in
  ignore (drain (fun () -> Fscan.step fs));
  check "wasted fetches counted" true (Fscan.rejected_after_fetch fs > 0)

(* --- jscan --------------------------------------------------------------- *)

let run_jscan ?(cfg = Jscan.default_config) f pred idx_names =
  let m = Rdb_storage.Cost.create () in
  let trace = Trace.create () in
  let candidates = List.map (fun n -> candidate_for f n pred) idx_names in
  let j = Jscan.create f.table m cfg trace ~candidates in
  (Jscan.run j, j, trace, m)

let final_rids f pred outcome =
  match outcome with
  | Jscan.Rid_list rids ->
      let m = Rdb_storage.Cost.create () in
      let fin =
        Final_stage.create f.table m ~rids ~restriction:pred ~exclude:(fun _ -> false)
      in
      drain (fun () -> Final_stage.step fin)
  | Jscan.Recommend_tscan _ ->
      let m = Rdb_storage.Cost.create () in
      let t = Tscan.create f.table m pred in
      drain (fun () -> Tscan.step t)

let test_jscan_intersection_correct () =
  let f = fixture () in
  let open Predicate in
  let pred = And [ "X" =% Value.int 7; "Y" <% Value.int 300 ] in
  let outcome, _, _, _ = run_jscan f pred [ "X_IDX"; "Y_IDX" ] in
  check "rows match oracle" true (final_rids f pred outcome = oracle f pred)

let test_jscan_empty_intersection_shortcuts () =
  let f = fixture () in
  let open Predicate in
  (* X = 7 AND Y in an empty range: the Y list is empty. *)
  let pred = And [ "X" =% Value.int 7; "Y" >% Value.int 5000 ] in
  let outcome, _, trace, _ = run_jscan f pred [ "Y_IDX"; "X_IDX" ] in
  (match outcome with
  | Jscan.Rid_list [||] -> ()
  | Jscan.Rid_list _ -> Alcotest.fail "expected empty list"
  | Jscan.Recommend_tscan _ -> Alcotest.fail "expected empty list, got tscan");
  (* The empty first list must have prevented further scans from
     keeping anything. *)
  check "completed without extra work" true
    (Trace.count trace (function Trace.Scan_completed _ -> true | _ -> false) >= 1)

let test_jscan_unselective_recommends_tscan () =
  let f = fixture () in
  let open Predicate in
  let pred = "X" >=% Value.int 1 in
  (* 99% of the table *)
  let outcome, _, _, _ = run_jscan f pred [ "X_IDX" ] in
  (match outcome with
  | Jscan.Recommend_tscan _ -> ()
  | Jscan.Rid_list _ -> Alcotest.fail "expected tscan recommendation");
  check "rows still correct" true (final_rids f pred outcome = oracle f pred)

let test_jscan_discards_useless_second_index () =
  let f = fixture () in
  let open Predicate in
  (* Selective on X, useless on Y. *)
  let pred = And [ "X" =% Value.int 3; "Y" >=% Value.int 0 ] in
  let outcome, j, trace, _ = run_jscan f pred [ "X_IDX"; "Y_IDX" ] in
  check "correct" true (final_rids f pred outcome = oracle f pred);
  check "some scan discarded or preskipped" true
    (Jscan.discarded_scans j >= 1
    || Trace.count trace (function Trace.Scan_discarded _ -> true | _ -> false) >= 1)

let test_jscan_static_mode_never_discards_midscan () =
  let f = fixture () in
  let open Predicate in
  let pred = And [ "X" =% Value.int 3; "Y" >=% Value.int 0 ] in
  let cfg = { Jscan.default_config with dynamic = false } in
  let _, _, trace, _ = run_jscan ~cfg f pred [ "X_IDX"; "Y_IDX" ] in
  check_int "no discards in static mode" 0
    (Trace.count trace (function Trace.Scan_discarded _ -> true | _ -> false))

let test_jscan_borrowing () =
  let f = fixture () in
  let open Predicate in
  let pred = "X" =% Value.int 9 in
  let m = Rdb_storage.Cost.create () in
  let trace = Trace.create () in
  let j =
    Jscan.create f.table m Jscan.default_config trace
      ~candidates:[ candidate_for f "X_IDX" pred ]
  in
  (* Step a bit, borrow some RIDs, then finish. *)
  let borrowed = ref [] in
  for _ = 1 to 200 do
    ignore (Jscan.step j);
    match Jscan.borrow j with Some r -> borrowed := r :: !borrowed | None -> ()
  done;
  let _ = Jscan.run j in
  check "borrowed some rids" true (!borrowed <> []);
  (* Every borrowed rid really satisfies the X restriction. *)
  let hm = Rdb_storage.Cost.create () in
  List.iter
    (fun rid ->
      match Rdb_storage.Heap_file.fetch (Table.heap f.table) hm rid with
      | Some row -> check "borrowed rid qualifies" true (Predicate.eval pred schema row)
      | None -> Alcotest.fail "borrowed rid missing")
    !borrowed

let test_jscan_spills_with_tiny_budget () =
  let f = fixture () in
  let open Predicate in
  let pred = "X" <% Value.int 50 in
  let cfg = { Jscan.default_config with memory_budget = 64; switch_ratio = 10.0; scan_cost_cap = 1e9 } in
  let outcome, _, trace, _ = run_jscan ~cfg f pred [ "X_IDX" ] in
  check "spilled" true
    (Trace.count trace (function Trace.List_spilled _ -> true | _ -> false) >= 1);
  check "rows correct despite spill" true (final_rids f pred outcome = oracle f pred)

(* The direct criterion (§6): an inexact estimate of 1 entry for a range
   of about half the table lets the scan overrun it, the two-stage
   criterion cannot fire under switch_ratio 10, and a 0.01% cap on the
   scan's own cost then discards it.  The reason text is pinned
   character for character: it reaches traces and EXPLAIN ANALYZE. *)
let test_jscan_direct_cap_reason () =
  let f = fixture () in
  let open Predicate in
  let pred = "X" <% Value.int 50 in
  let cand = { (candidate_for f "X_IDX" pred) with Scan.est = 1.0; est_exact = false } in
  let cfg = { Jscan.default_config with switch_ratio = 10.0; scan_cost_cap = 1e-4 } in
  let m = Rdb_storage.Cost.create () in
  let trace = Trace.create () in
  let j = Jscan.create f.table m cfg trace ~candidates:[ cand ] in
  (match Jscan.run j with
  | Jscan.Recommend_tscan _ -> ()
  | Jscan.Rid_list _ -> Alcotest.fail "expected the only scan to be discarded");
  let discarded = function
    | Trace.Scan_discarded { index; reason } -> Some (index, reason)
    | _ -> None
  in
  match List.filter_map discarded (Trace.events trace) with
  | [ (index, reason) ] ->
      Alcotest.(check string) "index" "X_IDX" index;
      let scan_cost = Scanf.sscanf reason "scan cost %f" Fun.id in
      Alcotest.(check string)
        "reason"
        (Printf.sprintf
           "scan cost %.1f exceeds 0%% of guaranteed best %.1f after overrunning its \
            estimate (direct)"
           scan_cost (Jscan.guaranteed_best j))
        reason
  | _ -> Alcotest.fail "expected exactly one Scan_discarded event"

let test_jscan_simultaneous_mode_correct () =
  let f = fixture () in
  let open Predicate in
  let pred = And [ "X" <% Value.int 10; "Y" <% Value.int 120 ] in
  let cfg = { Jscan.default_config with simultaneous = true } in
  let outcome, _, _, _ = run_jscan ~cfg f pred [ "X_IDX"; "Y_IDX" ] in
  check "simultaneous correct" true (final_rids f pred outcome = oracle f pred)

let prop_jscan_equals_tscan =
  QCheck.Test.make ~name:"jscan + final equals tscan row set" ~count:25
    QCheck.(triple (int_bound 99) (int_bound 999) (int_bound 999))
    (fun (x, ylo, yspan) ->
      let f = fixture ~rows:1500 () in
      let open Predicate in
      let pred =
        And
          [
            "X" =% Value.int x;
            between "Y" (Value.int ylo) (Value.int (ylo + yspan));
          ]
      in
      let outcome, _, _, _ = run_jscan f pred [ "X_IDX"; "Y_IDX" ] in
      final_rids f pred outcome = oracle f pred)

(* --- uscan --------------------------------------------------------------- *)

let or_oracle = oracle

let run_uscan f branch_specs =
  (* branch_specs: (index, branch predicate) pairs *)
  let m = Rdb_storage.Cost.create () in
  let trace = Trace.create () in
  let disjuncts = List.map (fun (n, p) -> candidate_for f n p) branch_specs in
  let u = Uscan.create f.table m Jscan.default_config trace ~disjuncts in
  (Uscan.run u, trace)

let uscan_rows f pred outcome =
  match outcome with
  | Uscan.Rid_list rids ->
      let m = Rdb_storage.Cost.create () in
      let fin =
        Final_stage.create f.table m ~rids ~restriction:pred ~exclude:(fun _ -> false)
      in
      drain (fun () -> Final_stage.step fin)
  | Uscan.Recommend_tscan _ ->
      let m = Rdb_storage.Cost.create () in
      let t = Tscan.create f.table m pred in
      drain (fun () -> Tscan.step t)

let test_uscan_union_correct () =
  let f = fixture () in
  let open Predicate in
  let b1 = "X" =% Value.int 3 and b2 = "Y" <% Value.int 40 in
  let pred = Or [ b1; b2 ] in
  let outcome, _ = run_uscan f [ ("X_IDX", b1); ("Y_IDX", b2) ] in
  check "union equals oracle" true (uscan_rows f pred outcome = or_oracle f pred)

let test_uscan_dedups_overlap () =
  let f = fixture () in
  let open Predicate in
  (* Overlapping disjuncts: X in both ranges. *)
  let b1 = And [ "X" >=% Value.int 3; "X" <=% Value.int 6 ] in
  let b2 = And [ "X" >=% Value.int 5; "X" <=% Value.int 9 ] in
  let pred = Or [ b1; b2 ] in
  let outcome, _ = run_uscan f [ ("X_IDX", b1); ("X_IDX", b2) ] in
  let rows = uscan_rows f pred outcome in
  check "no duplicates, matches oracle" true (rows = or_oracle f pred)

let test_uscan_falls_back_when_broad () =
  let f = fixture () in
  let open Predicate in
  let b1 = "X" >=% Value.int 1 and b2 = "Y" >=% Value.int 1 in
  let pred = Or [ b1; b2 ] in
  let outcome, trace = run_uscan f [ ("X_IDX", b1); ("Y_IDX", b2) ] in
  (match outcome with
  | Uscan.Recommend_tscan _ -> ()
  | Uscan.Rid_list _ -> Alcotest.fail "expected fallback to tscan");
  check "discard traced" true
    (Trace.count trace (function Trace.Scan_discarded _ -> true | _ -> false) >= 1);
  check "rows still correct" true (uscan_rows f pred outcome = or_oracle f pred)

let test_uscan_empty_union () =
  let f = fixture () in
  let open Predicate in
  let b1 = "X" >% Value.int 5000 and b2 = "Y" >% Value.int 5000 in
  let pred = Or [ b1; b2 ] in
  ignore pred;
  let outcome, _ = run_uscan f [ ("X_IDX", b1); ("Y_IDX", b2) ] in
  match outcome with
  | Uscan.Rid_list [||] -> ()
  | _ -> Alcotest.fail "expected empty union"

(* --- jscan config knobs ------------------------------------------------- *)

let test_jscan_filter_never_recommends_tscan () =
  let f = fixture () in
  let open Predicate in
  let pred = "X" >=% Value.int 1 in
  (* 99% of the table *)
  let cfg = { Jscan.default_config with filter_against = Some 1e9 } in
  let outcome, _, _, _ = run_jscan ~cfg f pred [ "X_IDX" ] in
  match outcome with
  | Jscan.Rid_list rids -> check "huge filter list delivered" true (Array.length rids > 2000)
  | Jscan.Recommend_tscan _ -> Alcotest.fail "filter-only must deliver the list"

let test_jscan_guaranteed_best_override_changes_decisions () =
  let f = fixture () in
  let open Predicate in
  let pred = "X" <% Value.int 50 in
  (* With a tiny guaranteed best every scan is immediately hopeless:
     no list completes, so even a filter has nothing to deliver. *)
  let cfg = { Jscan.default_config with filter_against = Some 0.5 } in
  let outcome, _, trace, _ = run_jscan ~cfg f pred [ "X_IDX" ] in
  (match outcome with
  | Jscan.Recommend_tscan _ -> ()
  | Jscan.Rid_list _ -> Alcotest.fail "expected abandonment under tiny g");
  check "discarded quickly" true
    (Trace.count trace (function Trace.Scan_discarded _ -> true | _ -> false) >= 1)

let test_jscan_no_candidates () =
  let f = fixture () in
  let m = Rdb_storage.Cost.create () in
  let trace = Trace.create () in
  let j = Jscan.create f.table m Jscan.default_config trace ~candidates:[] in
  (match Jscan.run j with
  | Jscan.Recommend_tscan _ -> ()
  | Jscan.Rid_list _ -> Alcotest.fail "no candidates must recommend tscan");
  check "no scans" true (Jscan.completed_scans j = 0)

let test_fscan_filter_attached_mid_scan () =
  let f = fixture () in
  let open Predicate in
  let pred = "X" =% Value.int 5 in
  let m = Rdb_storage.Cost.create () in
  let fs = Fscan.create f.table m (candidate_for f "X_IDX" pred) ~restriction:pred in
  (* Deliver a few rows unfiltered... *)
  let first = ref [] in
  let rec take n =
    if n > 0 then begin
      match Fscan.step fs with
      | Scan.Deliver (rid, _) ->
          first := rid :: !first;
          take (n - 1)
      | Scan.Continue -> take n
      | Scan.Done -> ()
      | Scan.Failed f -> raise (Rdb_storage.Fault.Injected f)
    end
  in
  take 3;
  (* ...then attach an empty filter: nothing more is fetched. *)
  Fscan.set_filter fs (Rdb_rid.Filter.of_sorted_array [||]);
  let fetched_before = Fscan.fetched fs in
  let rest = drain (fun () -> Fscan.step fs) in
  check_int "nothing after the filter" 0 (List.length rest);
  check_int "no further fetches" fetched_before (Fscan.fetched fs);
  check_int "three delivered before" 3 (List.length !first)

let test_final_stage_empty () =
  let f = fixture () in
  let m = Rdb_storage.Cost.create () in
  let fin =
    Final_stage.create f.table m ~rids:[||] ~restriction:Predicate.True
      ~exclude:(fun _ -> false)
  in
  check "immediately done" true (Final_stage.step fin = Scan.Done)

let test_tscan_empty_table () =
  let pool = Rdb_storage.Buffer_pool.create ~capacity:16 () in
  let table = Table.create pool ~name:"E" schema in
  let m = Rdb_storage.Cost.create () in
  let t = Tscan.create table m Predicate.True in
  check "done at once" true (Tscan.step t = Scan.Done)

(* --- final stage ------------------------------------------------------------ *)

let test_final_stage_excludes_delivered () =
  let f = fixture () in
  let open Predicate in
  let pred = "X" =% Value.int 4 in
  let all = oracle f pred in
  let excluded = List.filteri (fun i _ -> i < 3) all in
  let m = Rdb_storage.Cost.create () in
  let fin =
    Final_stage.create f.table m
      ~rids:(Array.of_list all)
      ~restriction:pred
      ~exclude:(fun rid -> List.exists (Rid.equal rid) excluded)
  in
  let got = drain (fun () -> Final_stage.step fin) in
  check_int "rest delivered" (List.length all - 3) (List.length got);
  check_int "skips counted" 3 (Final_stage.skipped_delivered fin)

let test_final_stage_reevaluates_restriction () =
  let f = fixture () in
  let open Predicate in
  (* Hand the final stage RIDs that do NOT all satisfy the
     restriction (as hashed filters can): they must be filtered. *)
  let pred = "X" =% Value.int 4 in
  let good = oracle f pred in
  let bad = oracle f ("X" =% Value.int 5) in
  let mixed = List.sort Rid.compare (good @ bad) in
  let m = Rdb_storage.Cost.create () in
  let fin =
    Final_stage.create f.table m ~rids:(Array.of_list mixed) ~restriction:pred
      ~exclude:(fun _ -> false)
  in
  check "only qualifying survive" true (drain (fun () -> Final_stage.step fin) = good)

(* --- cost model --------------------------------------------------------------- *)

let test_cost_model_orders () =
  let f = fixture () in
  let tscan = Cost_model.tscan_cost f.table in
  check "fetch few < tscan" true (Cost_model.rid_fetch_cost f.table ~k:5 < tscan);
  check "fetch all >= tscan-ish" true
    (Cost_model.rid_fetch_cost f.table ~k:(Table.row_count f.table) >= tscan *. 0.9);
  let idx = Option.get (Table.find_index f.table "X_IDX") in
  check "index scan of few entries cheap" true
    (Cost_model.index_scan_cost idx ~entries:50.0 < tscan /. 4.0)

let () =
  Alcotest.run "rdb_exec"
    [
      ( "tscan",
        [
          Alcotest.test_case "matches oracle" `Quick test_tscan_matches_oracle;
          Alcotest.test_case "flat cost" `Quick test_tscan_cost_is_flat;
          Alcotest.test_case "three-valued logic on NULLs" `Quick
            test_scans_keep_three_valued_logic;
        ] );
      ( "sscan",
        [
          Alcotest.test_case "matches oracle" `Quick test_sscan_matches_oracle;
          Alcotest.test_case "index-only reads" `Quick test_sscan_never_touches_heap;
          Alcotest.test_case "rejects non-covering" `Quick test_sscan_rejects_non_covering;
        ] );
      ( "fscan",
        [
          Alcotest.test_case "oracle + index order" `Quick
            test_fscan_matches_oracle_in_index_order;
          Alcotest.test_case "filter saves fetches" `Quick test_fscan_filter_saves_fetches;
          Alcotest.test_case "wasted fetches counted" `Quick test_fscan_counts_wasted_fetches;
        ] );
      ( "jscan",
        [
          Alcotest.test_case "intersection correct" `Quick test_jscan_intersection_correct;
          Alcotest.test_case "empty intersection shortcut" `Quick
            test_jscan_empty_intersection_shortcuts;
          Alcotest.test_case "unselective -> tscan" `Quick
            test_jscan_unselective_recommends_tscan;
          Alcotest.test_case "useless index discarded" `Quick
            test_jscan_discards_useless_second_index;
          Alcotest.test_case "static mode no discards" `Quick
            test_jscan_static_mode_never_discards_midscan;
          Alcotest.test_case "borrowing" `Quick test_jscan_borrowing;
          Alcotest.test_case "tiny budget spills" `Quick test_jscan_spills_with_tiny_budget;
          Alcotest.test_case "simultaneous mode" `Quick test_jscan_simultaneous_mode_correct;
          Alcotest.test_case "direct cap reason" `Quick test_jscan_direct_cap_reason;
          QCheck_alcotest.to_alcotest prop_jscan_equals_tscan;
        ] );
      ( "uscan",
        [
          Alcotest.test_case "union correct" `Quick test_uscan_union_correct;
          Alcotest.test_case "dedups overlap" `Quick test_uscan_dedups_overlap;
          Alcotest.test_case "broad falls back" `Quick test_uscan_falls_back_when_broad;
          Alcotest.test_case "empty union" `Quick test_uscan_empty_union;
        ] );
      ( "jscan_config",
        [
          Alcotest.test_case "filter-only delivers list" `Quick
            test_jscan_filter_never_recommends_tscan;
          Alcotest.test_case "guaranteed-best override" `Quick
            test_jscan_guaranteed_best_override_changes_decisions;
        ] );
      ( "edge-cases",
        [
          Alcotest.test_case "jscan with no candidates" `Quick test_jscan_no_candidates;
          Alcotest.test_case "fscan mid-scan filter" `Quick
            test_fscan_filter_attached_mid_scan;
          Alcotest.test_case "final stage empty" `Quick test_final_stage_empty;
          Alcotest.test_case "tscan empty table" `Quick test_tscan_empty_table;
        ] );
      ( "final_stage",
        [
          Alcotest.test_case "excludes delivered" `Quick test_final_stage_excludes_delivered;
          Alcotest.test_case "reevaluates restriction" `Quick
            test_final_stage_reevaluates_restriction;
        ] );
      ("cost_model", [ Alcotest.test_case "orderings" `Quick test_cost_model_orders ]);
    ]
