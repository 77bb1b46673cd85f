(* Tests for the dynamic optimizer: goal resolution, the §3
   competition arithmetic, the §5 initial stage, tactic selection and
   the Figure 4 control flow, retrieval correctness against an oracle,
   and the two static baselines. *)

open Rdb_data
open Rdb_engine
open Rdb_exec
module Goal = Rdb_core.Goal
module R = Rdb_core.Retrieval
module IS = Rdb_core.Initial_stage
module CM = Rdb_core.Competition_math
module SO = Rdb_core.Static_optimizer
module SJ = Rdb_core.Static_jscan

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- goals ----------------------------------------------------------------- *)

let test_goal_inference_rules () =
  let resolve ?explicit ?context () =
    fst (Goal.resolve ?explicit ?context ~default:Goal.Total_time ())
  in
  check "exists -> fast-first" true (resolve ~context:Goal.Exists () = Goal.Fast_first);
  check "limit -> fast-first" true (resolve ~context:(Goal.Limit 2) () = Goal.Fast_first);
  check "sort -> total-time" true (resolve ~context:Goal.Sort () = Goal.Total_time);
  check "aggregate -> total-time" true (resolve ~context:Goal.Aggregate () = Goal.Total_time);
  check "cursor defers to user" true
    (resolve ~explicit:Goal.Fast_first ~context:Goal.Cursor () = Goal.Fast_first);
  check "no context uses default" true (resolve () = Goal.Total_time);
  (* The controlling node beats the explicit request (the paper's B
     table gets total-time despite OPTIMIZE FOR TOTAL TIME... i.e. the
     SORT wins over any user setting). *)
  check "controlling node beats user" true
    (resolve ~explicit:Goal.Fast_first ~context:Goal.Sort () = Goal.Total_time)

(* --- §3 competition arithmetic ---------------------------------------------- *)

let test_lshape_has_half_mass_below_knee () =
  let d = CM.l_shaped ~knee:10.0 ~cmax:1000.0 () in
  Alcotest.(check (float 0.02)) "half mass" 0.5 (CM.cdf d 10.0)

let test_direct_competition_halves_cost () =
  (* The paper's arithmetic: run A2 to its knee c2, then switch to A1;
     expected cost ~ (m2 + c2 + M1)/2, about half the traditional M1. *)
  let a1 = CM.l_shaped ~knee:10.0 ~cmax:1000.0 () in
  let a2 = CM.l_shaped ~knee:8.0 ~cmax:1200.0 () in
  let m1 = CM.mean a1 in
  let c2 = CM.quantile a2 0.5 in
  let m2 = CM.mean_below a2 c2 in
  let competition = CM.switch_cost ~try_:a2 ~fallback:a1 ~switch_at:c2 in
  let predicted = 0.5 *. (m2 +. c2 +. m1) in
  Alcotest.(check (float (0.05 *. predicted))) "paper formula" predicted competition;
  check "beats traditional" true (competition < 0.75 *. m1)

let test_optimal_switch_at_least_as_good () =
  let a1 = CM.l_shaped ~knee:10.0 ~cmax:1000.0 () in
  let a2 = CM.l_shaped ~knee:8.0 ~cmax:1200.0 () in
  let c2 = CM.quantile a2 0.5 in
  let tau, best = CM.optimal_switch ~try_:a2 ~fallback:a1 in
  check "optimal <= knee policy" true
    (best <= CM.switch_cost ~try_:a2 ~fallback:a1 ~switch_at:c2 +. 1e-6);
  check "tau positive" true (tau > 0.0)

let test_switch_cost_degenerates_correctly () =
  let a1 = CM.l_shaped ~knee:10.0 ~cmax:1000.0 () in
  let a2 = CM.l_shaped ~knee:8.0 ~cmax:1200.0 () in
  (* Switching at ~0 is just running A1; switching at cmax is just A2. *)
  let at_zero = CM.switch_cost ~try_:a2 ~fallback:a1 ~switch_at:0.001 in
  Alcotest.(check (float 1.0)) "tau=0 ~ mean A1" (CM.mean a1) at_zero;
  let at_max = CM.switch_cost ~try_:a2 ~fallback:a1 ~switch_at:1200.0 in
  Alcotest.(check (float 1.0)) "tau=max ~ mean A2" (CM.mean a2) at_max

let test_simultaneous_beats_single_on_lshapes () =
  let a = CM.l_shaped ~knee:10.0 ~cmax:1000.0 () in
  let b = CM.l_shaped ~knee:10.0 ~cmax:1000.0 () in
  let _, _, best = CM.optimal_simultaneous ~a ~b in
  check "simultaneous beats single run" true (best < CM.mean a)

let test_simultaneous_total_accounting () =
  (* Deterministic check of the per-realization cost accounting via
     two point distributions. *)
  let point x =
    CM.of_dist (Rdb_dist.Dist.point (x /. 100.0)) ~cmax:100.0
  in
  (* A costs 60 at speed .5 -> completes at wall 120; B costs 10 at
     speed .5 -> completes at wall 20 -> B first, total 20. *)
  let c = CM.simultaneous_cost ~a:(point 60.0) ~b:(point 10.0) ~speed_a:0.5 ~abandon_b_at:50.0 in
  Alcotest.(check (float 2.0)) "b completes first" 20.0 c;
  (* B abandoned at 5 of its own progress (wall 10); A then finishes
     alone: total = 10 + (60 - 5) = 65. *)
  let c2 = CM.simultaneous_cost ~a:(point 60.0) ~b:(point 10.0) ~speed_a:0.5 ~abandon_b_at:5.0 in
  Alcotest.(check (float 2.0)) "b abandoned" 65.0 c2

(* --- fixture ------------------------------------------------------------------ *)

let schema =
  Schema.make
    [
      Schema.col "ID" Value.T_int;
      Schema.col "X" Value.T_int;
      Schema.col "Y" Value.T_int;
      Schema.col "S" Value.T_str;
    ]

let fixture ?(rows = 4000) ?(pool_capacity = 1024) ?(seed = 19) () =
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
  ignore (Table.create_index table ~name:"XY_IDX" ~columns:[ "X"; "Y" ] ());
  table

let oracle table pred =
  let m = Rdb_storage.Cost.create () in
  let out = ref [] in
  Rdb_storage.Heap_file.iter (Table.heap table) m (fun _ row ->
      if Predicate.eval pred (Table.schema table) row then out := row :: !out);
  List.rev !out

let sort_rows rows = List.sort (fun a b -> Row.compare_at [| 0 |] a b) rows

(* --- initial stage -------------------------------------------------------------- *)

let stage table pred ?(needed = [ "ID"; "X"; "Y"; "S" ]) ?(order = []) () =
  let m = Rdb_storage.Cost.create () in
  let trace = Trace.create () in
  ( IS.run table m trace ~feedback_rate:0.0 ~restriction:pred ~needed_columns:needed
      ~order_by:order,
    trace )

let test_initial_stage_orders_by_estimate () =
  let table = fixture () in
  let open Predicate in
  let pred = And [ "X" =% Value.int 3; between "Y" (Value.int 0) (Value.int 800) ] in
  match stage table pred () with
  | IS.Arranged c, _ ->
      let ests = List.map (fun cand -> cand.Scan.est) c.IS.jscan_candidates in
      let rec mono = function a :: b :: r -> a <= b && mono (b :: r) | _ -> true in
      check "ascending estimates" true (mono ests);
      check "several candidates" true (List.length c.IS.jscan_candidates >= 2)
  | IS.No_rows _, _ -> Alcotest.fail "unexpected cancellation"

let test_initial_stage_empty_range_cancels () =
  let table = fixture () in
  let open Predicate in
  match stage table ("X" >% Value.int 5000) () with
  | IS.No_rows _, trace ->
      check "trace records it" true
        (Trace.count trace (function Trace.Empty_range _ -> true | _ -> false) = 1)
  | IS.Arranged _, _ -> Alcotest.fail "expected cancellation"

let test_initial_stage_shortcut_on_tiny_range () =
  let table = fixture () in
  (* Insert a unique key value so the estimate is tiny and exact. *)
  ignore (Table.insert table [| Value.int 99999; Value.int 777; Value.int 5; Value.str "u" |]);
  let idx = Option.get (Table.find_index table "X_IDX") in
  ignore idx;
  let open Predicate in
  let pred = And [ "X" =% Value.int 777; "Y" >=% Value.int 0 ] in
  match stage table pred () with
  | IS.Arranged _, trace ->
      check "shortcut fired" true
        (Trace.count trace (function Trace.Shortcut_estimation _ -> true | _ -> false) >= 1)
  | IS.No_rows _, _ -> Alcotest.fail "unexpected cancellation"

let test_initial_stage_remembers_order () =
  let table = fixture () in
  let open Predicate in
  let pred = And [ "X" =% Value.int 3; "Y" =% Value.int 10 ] in
  ignore (stage table pred ());
  let order = Table.preferred_order table in
  check "order recorded" true (order <> []);
  (* The next run estimates in that order. *)
  match stage table pred () with
  | IS.Arranged _, trace ->
      let first_estimated =
        List.find_map
          (function Trace.Estimated { index; _ } -> Some index | _ -> None)
          (Trace.events trace)
      in
      check "starts with remembered best" true (first_estimated = Some (List.hd order))
  | IS.No_rows _, _ -> Alcotest.fail "unexpected cancellation"

let test_initial_stage_self_sufficient_detection () =
  let table = fixture () in
  let open Predicate in
  let pred = And [ "X" =% Value.int 3; "Y" <% Value.int 100 ] in
  match stage table pred ~needed:[ "X"; "Y" ] () with
  | IS.Arranged c, _ ->
      check "XY_IDX is self-sufficient" true
        (List.exists
           (fun cand -> cand.Scan.idx.Table.idx_name = "XY_IDX")
           c.IS.self_sufficient)
  | IS.No_rows _, _ -> Alcotest.fail "unexpected cancellation"

let test_initial_stage_order_index () =
  let table = fixture () in
  let open Predicate in
  match stage table ("Y" <% Value.int 100) ~order:[ "X" ] () with
  | IS.Arranged c, _ -> (
      match c.IS.order_index with
      | Some cand ->
          check "an X-leading index provides the order" true
            (List.mem cand.Scan.idx.Table.idx_name [ "X_IDX"; "XY_IDX" ])
      | None -> Alcotest.fail "no order index found")
  | IS.No_rows _, _ -> Alcotest.fail "unexpected cancellation"

(* --- retrieval correctness -------------------------------------------------------- *)

let run_and_compare ?explicit_goal ?order_by ?projection table pred =
  let rows, s = R.run table (R.request ?explicit_goal ?order_by ?projection pred) in
  let expected = oracle table pred in
  check
    (Printf.sprintf "rows match oracle (%s)" (R.tactic_to_string s.R.tactic))
    true
    (sort_rows rows = sort_rows expected);
  s

let test_retrieval_correct_across_goals () =
  let table = fixture () in
  let open Predicate in
  let preds =
    [
      "X" =% Value.int 5;
      And [ "X" =% Value.int 5; "Y" <% Value.int 300 ];
      And [ "X" <% Value.int 3; "Y" <% Value.int 500; "S" =% Value.str "s00001" ];
      Or [ "X" =% Value.int 5; "X" =% Value.int 6 ];
      "Y" >=% Value.int 0;
      Not ("X" <% Value.int 50);
      True;
    ]
  in
  List.iter
    (fun pred ->
      ignore (run_and_compare ~explicit_goal:Goal.Total_time table pred);
      ignore (run_and_compare ~explicit_goal:Goal.Fast_first table pred))
    preds

let test_retrieval_order_by () =
  let table = fixture () in
  let open Predicate in
  let rows, _ =
    R.run table (R.request ~order_by:[ "Y" ] (And [ "X" =% Value.int 5 ]))
  in
  let ys = List.map (fun r -> match Row.get r 2 with Value.Int y -> y | _ -> -1) rows in
  let rec mono = function a :: b :: r -> a <= b && mono (b :: r) | _ -> true in
  check "sorted by Y" true (mono ys);
  check "non-empty" true (ys <> [])

let test_retrieval_limit_stops_early () =
  let table = fixture () in
  let open Predicate in
  let rows, s = R.run ~limit:5 table (R.request ~explicit_goal:Goal.Fast_first ("X" >=% Value.int 0)) in
  check_int "limited" 5 (List.length rows);
  (* Early termination must not have paid for the whole table. *)
  check "cheap" true (s.R.total_cost < Rdb_exec.Cost_model.tscan_cost table /. 2.0)

let test_retrieval_empty_range_cancelled () =
  let table = fixture () in
  let open Predicate in
  let rows, s = R.run table (R.request ("X" >% Value.int 10000)) in
  check_int "no rows" 0 (List.length rows);
  check "cancelled tactic" true (s.R.tactic = R.Cancelled)

let test_retrieval_false_restriction () =
  let table = fixture () in
  let rows, s = R.run table (R.request Predicate.False) in
  check_int "no rows" 0 (List.length rows);
  check "cancelled" true (s.R.tactic = R.Cancelled)

let test_retrieval_host_variables () =
  let table = fixture () in
  let open Predicate in
  let pred = param_cmp "X" Ge "A1" in
  let r0, s0 = R.run table (R.request ~env:[ ("A1", Value.int 0) ] pred) in
  let r99, s99 = R.run table (R.request ~env:[ ("A1", Value.int 99) ] pred) in
  check "all rows" true (List.length r0 = Table.row_count table);
  check "few rows" true (List.length r99 < Table.row_count table / 10);
  check "cheaper when selective" true (s99.R.total_cost < s0.R.total_cost)

let test_goal_affects_first_row_cost () =
  let table = fixture ~rows:6000 () in
  let open Predicate in
  let pred = And [ "X" =% Value.int 7; "Y" <% Value.int 900 ] in
  Rdb_storage.Buffer_pool.flush (Table.pool table);
  let _, tt = R.run table (R.request ~explicit_goal:Goal.Total_time pred) in
  Rdb_storage.Buffer_pool.flush (Table.pool table);
  let c = R.open_ table (R.request ~explicit_goal:Goal.Fast_first pred) in
  let first = R.fetch c in
  let ff = R.close c in
  check "row came" true (first <> None);
  match (ff.R.cost_to_first_row, tt.R.cost_to_first_row) with
  | Some f, Some t -> check "fast-first first row no slower" true (f <= t +. 1.0)
  | _ -> Alcotest.fail "missing first-row costs"

(* --- tactics & flow ---------------------------------------------------------------- *)

let tactic_for table ?explicit_goal ?order_by ?projection pred =
  let _, s = R.run table (R.request ?explicit_goal ?order_by ?projection pred) in
  s.R.tactic

let test_tactic_selection () =
  let table = fixture () in
  let open Predicate in
  (* No index on S: Tscan. *)
  check "tscan" true (tactic_for table ("S" =% Value.str "zzz") = R.Static_tscan);
  (* Covering index, projection within it: index-only or static sscan. *)
  let t = tactic_for table ~projection:[ "X"; "Y" ] (And [ "X" =% Value.int 5; "Y" <% Value.int 100 ]) in
  check "uses self-sufficient index" true (t = R.Index_only_tactic || t = R.Static_sscan);
  (* Fetch-needed only, total-time: background-only. *)
  check "bg-only" true
    (tactic_for table ~explicit_goal:Goal.Total_time ("X" =% Value.int 5) = R.Background_only);
  (* Fetch-needed only, fast-first: fast-first tactic. *)
  check "fast-first" true
    (tactic_for table ~explicit_goal:Goal.Fast_first ("X" =% Value.int 5) = R.Fast_first_tactic)

let test_sorted_tactic_used_and_ordered () =
  let table = fixture () in
  let open Predicate in
  let req =
    R.request ~explicit_goal:Goal.Fast_first ~order_by:[ "X" ]
      (And [ "Y" <% Value.int 200; "S" =% Value.str "s00010" ])
  in
  let rows, s = R.run table req in
  ignore rows;
  check "sorted tactic or fscan" true
    (s.R.tactic = R.Sorted_tactic || s.R.tactic = R.Static_fscan)

let test_flow_fast_first_events () =
  let table = fixture ~rows:6000 () in
  let open Predicate in
  let pred = And [ "X" <% Value.int 40; "Y" <% Value.int 400 ] in
  let rows, s = R.run table (R.request ~explicit_goal:Goal.Fast_first pred) in
  check "rows match" true (sort_rows rows = sort_rows (oracle table pred));
  (* Figure 4 flow: a tactic was chosen, the background either
     completed a list or recommended Tscan, and if a final stage ran it
     filtered the foreground's deliveries. *)
  check "tactic event" true
    (List.exists (function Trace.Tactic_chosen _ -> true | _ -> false) s.R.trace);
  let has_final = List.exists (function Trace.Final_stage _ -> true | _ -> false) s.R.trace in
  let has_tscan = List.exists (function Trace.Use_tscan _ -> true | _ -> false) s.R.trace in
  check "background resolved" true (has_final || has_tscan)

let test_no_duplicate_rows_from_fgr_bgr () =
  (* The foreground delivers some rows, the final stage must not
     deliver them again. *)
  let table = fixture ~rows:6000 () in
  let open Predicate in
  let pred = And [ "X" <% Value.int 30; "Y" <% Value.int 600 ] in
  let rows, _ = R.run table (R.request ~explicit_goal:Goal.Fast_first pred) in
  let ids =
    List.map (fun r -> match Row.get r 0 with Value.Int i -> i | _ -> -1) rows
  in
  check_int "no duplicates" (List.length ids) (List.length (List.sort_uniq compare ids))

let prop_retrieval_matches_oracle =
  QCheck.Test.make ~name:"retrieval equals oracle over random predicates/goals" ~count:20
    QCheck.(
      quad (int_bound 99) (int_bound 999) (int_bound 400) bool)
    (fun (x, ylo, yspan, fast) ->
      let table = fixture ~rows:2000 () in
      let open Predicate in
      let pred =
        And [ "X" >=% Value.int (x / 2); "X" <=% Value.int x;
              between "Y" (Value.int ylo) (Value.int (ylo + yspan)) ]
      in
      let goal = if fast then Goal.Fast_first else Goal.Total_time in
      let rows, _ = R.run table (R.request ~explicit_goal:goal pred) in
      sort_rows rows = sort_rows (oracle table pred))

let test_union_tactic_selected_and_correct () =
  let table = fixture () in
  let open Predicate in
  let pred = Or [ "X" =% Value.int 3; "Y" <% Value.int 30 ] in
  let rows, s = R.run table (R.request pred) in
  check "union tactic" true (s.R.tactic = R.Union_tactic);
  check "rows correct" true (sort_rows rows = sort_rows (oracle table pred));
  (* An uncovered disjunct (no index on S) blocks the union. *)
  let pred2 = Or [ "X" =% Value.int 3; "S" =% Value.str "s00001" ] in
  let rows2, s2 = R.run table (R.request pred2) in
  check "falls back without coverage" true (s2.R.tactic = R.Static_tscan);
  check "rows still correct" true (sort_rows rows2 = sort_rows (oracle table pred2))

let test_union_tactic_with_in_list () =
  let table = fixture () in
  let open Predicate in
  (* IN-lists absorb into multi-ranges, so this whole OR is covered. *)
  let pred =
    Or
      [
        In_list ("X", [ Const (Value.int 5); Const (Value.int 9) ]);
        "Y" =% Value.int 77;
      ]
  in
  let rows, s = R.run table (R.request pred) in
  check "union tactic over IN" true (s.R.tactic = R.Union_tactic);
  check "rows correct" true (sort_rows rows = sort_rows (oracle table pred))

let test_drain_pairs_exposes_rids () =
  let table = fixture () in
  let open Predicate in
  let c = R.open_ table (R.request ("X" =% Value.int 4)) in
  let pairs = R.drain_pairs c in
  ignore (R.close c);
  check "has rows" true (pairs <> []);
  let m = Rdb_storage.Cost.create () in
  List.iter
    (fun (rid, row) ->
      match Rdb_storage.Heap_file.fetch (Table.heap table) m rid with
      | Some stored -> check "rid points at the delivered row" true (Row.equal stored row)
      | None -> Alcotest.fail "dangling rid")
    pairs

(* A static Sscan delivers in order only when its own index provides
   the order.  IB (B, A) heads the covering candidates, but IA (A, B)
   is the cheaper scan, so the Sscan runs over IA and the rows must be
   sorted by B after it: under the default config (the single useful
   Sscan) and with background refinement off (the scheduler's pressure
   rung, which degrades index-only to its Sscan). *)
let test_sscan_order_follows_its_index () =
  let pool = Rdb_storage.Buffer_pool.create ~capacity:1024 () in
  let table =
    Table.create pool ~name:"T"
      (Schema.make
         [
           Schema.col "A" Value.T_int;
           Schema.col "B" Value.T_int;
           Schema.col "PAD" Value.T_str;
         ])
  in
  let rng = Rdb_util.Prng.create ~seed:1 in
  let pad = Value.str (String.make 200 'p') in
  for b = 0 to 1999 do
    let a = Value.int (Rdb_util.Prng.int rng 2000) in
    ignore (Table.insert table [| a; Value.int b; pad |])
  done;
  ignore (Table.create_index table ~name:"IB" ~columns:[ "B"; "A" ] ());
  ignore (Table.create_index table ~name:"IA" ~columns:[ "A"; "B" ] ());
  let ab rows = List.sort compare (List.map (fun r -> (Row.get r 0, Row.get r 1)) rows) in
  let ordered_by_b label config pred =
    let rows, s =
      R.run ~config table (R.request ~order_by:[ "B" ] ~projection:[ "A"; "B" ] pred)
    in
    check (label ^ ": static Sscan") true (s.R.tactic = R.Static_sscan);
    let bs = List.map (fun r -> Row.get r 1) rows in
    check (label ^ ": sorted by B") true (bs = List.sort compare bs);
    check (label ^ ": oracle rows") true (ab rows = ab (oracle table pred))
  in
  let open Predicate in
  ordered_by_b "default" R.default_config True;
  ordered_by_b "bgr off"
    { R.default_config with R.bgr_enabled = false }
    (And [ "A" <% Value.int 200; "B" <% Value.int 190 ])

(* Competition thresholds steer *cost*, never *results*: any
   configuration must return the oracle's rows. *)
let prop_config_never_changes_results =
  QCheck.Test.make ~name:"rows invariant under competition configs" ~count:15
    QCheck.(
      quad (float_range 0.0 3.0) (float_range 0.0 2.0) (int_range 1 500) (int_range 25 2000))
    (fun (switch_ratio, scan_cost_cap, check_every, memory_budget) ->
      let table = fixture ~rows:1500 () in
      let open Predicate in
      let pred = And [ "X" <% Value.int 20; "Y" <% Value.int 400 ] in
      let cfg =
        {
          R.default_config with
          R.jscan =
            {
              Rdb_exec.Jscan.default_config with
              Rdb_exec.Jscan.switch_ratio;
              scan_cost_cap;
              check_every;
              memory_budget;
              simultaneous = check_every mod 2 = 0;
            };
        }
      in
      let rows, _ = R.run ~config:cfg table (R.request pred) in
      sort_rows rows = sort_rows (oracle table pred))

let test_trace_contains_lifecycle_events () =
  let table = fixture () in
  let open Predicate in
  let _, s = R.run table (R.request ("X" =% Value.int 5)) in
  check "tactic chosen traced" true
    (List.exists (function Trace.Tactic_chosen _ -> true | _ -> false) s.R.trace);
  check "retrieval done traced" true
    (List.exists (function Trace.Retrieval_done _ -> true | _ -> false) s.R.trace)

(* The [Ant91B] combination matrix: goal x order request x index
   availability must always resolve to a sensible tactic, and every
   cell must return the oracle's rows.  This pins the Figure 4
   dispatcher across its whole input space. *)
let test_tactic_matrix () =
  let table = fixture () in
  let open Predicate in
  let fetch_needed = And [ "X" =% Value.int 5; "S" =% Value.str "s00001" ] in
  let covered = And [ "X" =% Value.int 5; "Y" <% Value.int 300 ] in
  let no_index = Like ("S", "s0000%") in
  let cells =
    [
      (* (label, goal, order, projection, pred, acceptable tactics) *)
      ( "tt, no order, fetch-needed",
        Goal.Total_time, [], None, fetch_needed, [ R.Background_only ] );
      ( "ff, no order, fetch-needed",
        Goal.Fast_first, [], None, fetch_needed, [ R.Fast_first_tactic ] );
      ( "tt, no order, covering",
        Goal.Total_time, [], Some [ "X"; "Y" ], covered,
        [ R.Index_only_tactic; R.Static_sscan ] );
      ( "ff, no order, covering",
        Goal.Fast_first, [], Some [ "X"; "Y" ], covered,
        [ R.Index_only_tactic; R.Static_sscan ] );
      ( "ff, order via index, fetch-needed",
        Goal.Fast_first, [ "X" ], None, And [ "Y" <% Value.int 300; "S" =% Value.str "s00001" ],
        [ R.Sorted_tactic; R.Static_fscan ] );
      ( "tt, order via index, fetch-needed",
        Goal.Total_time, [ "X" ], None, fetch_needed,
        [ R.Background_only; R.Sorted_tactic ] );
      ( "tt, no index at all",
        Goal.Total_time, [], None, no_index, [ R.Static_tscan ] );
      ( "ff, no index at all",
        Goal.Fast_first, [], None, no_index, [ R.Static_tscan ] );
      ( "tt, covered OR",
        Goal.Total_time, [], None, Or [ "X" =% Value.int 5; "Y" =% Value.int 7 ],
        [ R.Union_tactic ] );
    ]
  in
  List.iter
    (fun (label, goal, order_by, projection, pred, acceptable) ->
      let rows, s =
        R.run table (R.request ~explicit_goal:goal ~order_by ?projection pred)
      in
      check
        (Printf.sprintf "%s -> %s acceptable" label (R.tactic_to_string s.R.tactic))
        true
        (List.mem s.R.tactic acceptable);
      (* Projection may hide columns, so compare row counts against the
         oracle rather than full rows. *)
      check_int (label ^ " count") (List.length (oracle table pred)) (List.length rows))
    cells

let test_retrieval_limit_zero () =
  let table = fixture () in
  let open Predicate in
  let rows, s = R.run ~limit:0 table (R.request ("X" =% Value.int 5)) in
  check_int "no rows" 0 (List.length rows);
  check "tiny cost" true (s.R.total_cost < 5.0)

let test_cursor_close_is_idempotent () =
  let table = fixture () in
  let open Predicate in
  let c = R.open_ table (R.request ("X" =% Value.int 5)) in
  ignore (R.fetch c);
  let s1 = R.close c in
  let s2 = R.close c in
  check "same summary" true (s1 == s2);
  check "fetch after close is None" true (R.fetch c = None)

let test_empty_table_retrieval () =
  let pool = Rdb_storage.Buffer_pool.create ~capacity:16 () in
  let table = Table.create pool ~name:"EMPTY" schema in
  ignore (Table.create_index table ~name:"X_IDX" ~columns:[ "X" ] ());
  let open Predicate in
  let rows, _ = R.run table (R.request ("X" =% Value.int 1)) in
  check_int "no rows" 0 (List.length rows);
  let rows2, _ = R.run table (R.request True) in
  check_int "no rows at all" 0 (List.length rows2)

(* An unknown column fails at open, by name, whatever the table holds.
   (Compiling the restriction at open is what catches it: on an empty
   table the cursor used to report no rows and [Completed], and on
   ORDERS the first fetch raised a bare [Not_found].) *)
let test_unknown_column_fails_at_open () =
  let open Predicate in
  let names_nope f =
    match f () with
    | exception Invalid_argument msg ->
        let rec has i =
          i + 4 <= String.length msg && (String.sub msg i 4 = "NOPE" || has (i + 1))
        in
        has 0
    | (_ : R.cursor) -> false
  in
  let db = Rdb_workload.Datasets.fresh_db () in
  let orders = Rdb_workload.Datasets.orders ~rows:2000 db in
  let empty =
    Table.create (Rdb_storage.Buffer_pool.create ~capacity:16 ()) ~name:"EMPTY" schema
  in
  ignore (Table.create_index empty ~name:"X_IDX" ~columns:[ "X" ] ());
  List.iter
    (fun (label, table, indexed) ->
      let opens req () = R.open_ table req in
      check (label ^ ": restriction") true
        (names_nope (opens (R.request ("NOPE" =% Value.int 1))));
      check (label ^ ": AND with an indexed column") true
        (names_nope
           (opens (R.request (And [ indexed =% Value.int 1; "NOPE" =% Value.int 1 ]))));
      check (label ^ ": ORDER BY") true
        (names_nope (opens (R.request ~order_by:[ "NOPE" ] (indexed =% Value.int 1))));
      check (label ^ ": projection") true
        (names_nope
           (opens (R.request ~projection:[ "NOPE"; indexed ] (indexed =% Value.int 1)))))
    [ ("empty table", empty, "X"); ("ORDERS", orders, "PRODUCT") ]

let test_union_all_branches_empty () =
  let table = fixture () in
  let open Predicate in
  let rows, s =
    R.run table (R.request (Or [ "X" >% Value.int 5000; "Y" >% Value.int 5000 ]))
  in
  check_int "empty union" 0 (List.length rows);
  (* Either the union ran and found nothing, or estimation cancelled
     the whole OR up front. *)
  check "cheap" true (s.R.total_cost < 10.0)

let test_static_jscan_thresholds () =
  let table = fixture () in
  let open Predicate in
  let pred = And [ "X" =% Value.int 5; "Y" <% Value.int 500 ] in
  (* threshold 1.0 keeps every index *)
  let r = SJ.run ~keep_threshold:1.0 table pred ~env:[] in
  check "keeps correct" true (sort_rows r.SJ.rows = sort_rows (oracle table pred))

(* --- baselines --------------------------------------------------------------------- *)

let test_static_optimizer_freezes_plan () =
  let table = fixture () in
  let open Predicate in
  let pred = param_cmp "X" Ge "A1" in
  let plan = SO.compile table pred ~env:[] in
  (* Whatever was chosen, it is used for both extremes; correctness
     must hold regardless. *)
  let r_all = SO.execute table plan pred ~env:[ ("A1", Value.int 0) ] in
  let r_none = SO.execute table plan pred ~env:[ ("A1", Value.int 100) ] in
  check_int "all rows" (Table.row_count table) (List.length r_all.SO.rows);
  check "selective rows" true
    (List.length r_none.SO.rows = List.length (oracle table ("X" >=% Value.int 100)))

let test_static_optimizer_picks_index_when_bound () =
  let table = fixture () in
  let open Predicate in
  let plan = SO.compile table ("X" =% Value.int 5) ~env:[] in
  check "index plan" true
    (match plan.SO.strategy with SO.P_fscan _ | SO.P_sscan _ -> true | SO.P_tscan -> false)

let test_static_jscan_correct_and_threshold () =
  let table = fixture () in
  let open Predicate in
  let pred = And [ "X" =% Value.int 5; "Y" <% Value.int 500 ] in
  let r = SJ.run table pred ~env:[] in
  check "rows correct" true (sort_rows r.SJ.rows = sort_rows (oracle table pred));
  (* With an impossible threshold every index is rejected: Tscan. *)
  let r2 = SJ.run ~keep_threshold:0.0 table pred ~env:[] in
  check "degenerates to tscan" true r2.SJ.used_tscan;
  check "still correct" true (sort_rows r2.SJ.rows = sort_rows (oracle table pred))

let test_dynamic_beats_static_on_host_variables () =
  (* The headline claim: across a parameter sweep the dynamic
     optimizer's total cost is well below the frozen plan's. *)
  let table = fixture ~rows:6000 ~pool_capacity:64 () in
  let open Predicate in
  let pred = param_cmp "X" Ge "A1" in
  let plan = SO.compile table pred ~env:[] in
  let static_total = ref 0.0 and dynamic_total = ref 0.0 in
  List.iter
    (fun v ->
      let env = [ ("A1", Value.int v) ] in
      Rdb_storage.Buffer_pool.flush (Table.pool table);
      let r = SO.execute table plan pred ~env in
      static_total := !static_total +. r.SO.cost;
      Rdb_storage.Buffer_pool.flush (Table.pool table);
      let _, s = R.run table (R.request ~env pred) in
      dynamic_total := !dynamic_total +. s.R.total_cost)
    [ 0; 50; 90; 99; 100; 150 ];
  check "dynamic cheaper overall" true (!dynamic_total < !static_total)

let () =
  Alcotest.run "rdb_core"
    [
      ("goal", [ Alcotest.test_case "inference rules" `Quick test_goal_inference_rules ]);
      ( "competition_math",
        [
          Alcotest.test_case "L-shape knee mass" `Quick test_lshape_has_half_mass_below_knee;
          Alcotest.test_case "direct competition halves cost" `Quick
            test_direct_competition_halves_cost;
          Alcotest.test_case "optimal switch" `Quick test_optimal_switch_at_least_as_good;
          Alcotest.test_case "switch degenerate taus" `Quick
            test_switch_cost_degenerates_correctly;
          Alcotest.test_case "simultaneous beats single" `Quick
            test_simultaneous_beats_single_on_lshapes;
          Alcotest.test_case "simultaneous accounting" `Quick
            test_simultaneous_total_accounting;
        ] );
      ( "initial_stage",
        [
          Alcotest.test_case "orders by estimate" `Quick test_initial_stage_orders_by_estimate;
          Alcotest.test_case "empty range cancels" `Quick test_initial_stage_empty_range_cancels;
          Alcotest.test_case "tiny range shortcut" `Quick
            test_initial_stage_shortcut_on_tiny_range;
          Alcotest.test_case "remembers order" `Quick test_initial_stage_remembers_order;
          Alcotest.test_case "self-sufficient detection" `Quick
            test_initial_stage_self_sufficient_detection;
          Alcotest.test_case "order index" `Quick test_initial_stage_order_index;
        ] );
      ( "retrieval",
        [
          Alcotest.test_case "correct across goals" `Slow test_retrieval_correct_across_goals;
          Alcotest.test_case "order by" `Quick test_retrieval_order_by;
          Alcotest.test_case "limit stops early" `Quick test_retrieval_limit_stops_early;
          Alcotest.test_case "empty range cancelled" `Quick test_retrieval_empty_range_cancelled;
          Alcotest.test_case "false restriction" `Quick test_retrieval_false_restriction;
          Alcotest.test_case "host variables" `Quick test_retrieval_host_variables;
          Alcotest.test_case "goal affects first-row cost" `Quick
            test_goal_affects_first_row_cost;
          QCheck_alcotest.to_alcotest prop_retrieval_matches_oracle;
        ] );
      ( "tactics",
        [
          Alcotest.test_case "selection" `Quick test_tactic_selection;
          Alcotest.test_case "sorted tactic" `Quick test_sorted_tactic_used_and_ordered;
          Alcotest.test_case "fast-first flow events" `Quick test_flow_fast_first_events;
          Alcotest.test_case "no fgr/bgr duplicates" `Quick test_no_duplicate_rows_from_fgr_bgr;
          Alcotest.test_case "union tactic" `Quick test_union_tactic_selected_and_correct;
          Alcotest.test_case "union over IN-list" `Quick test_union_tactic_with_in_list;
          Alcotest.test_case "drain_pairs rids" `Quick test_drain_pairs_exposes_rids;
          Alcotest.test_case "sscan order follows its index" `Quick
            test_sscan_order_follows_its_index;
          Alcotest.test_case "tactic matrix (goal x order x indexes)" `Quick
            test_tactic_matrix;
          QCheck_alcotest.to_alcotest prop_config_never_changes_results;
          Alcotest.test_case "lifecycle trace events" `Quick
            test_trace_contains_lifecycle_events;
        ] );
      ( "edge-cases",
        [
          Alcotest.test_case "limit zero" `Quick test_retrieval_limit_zero;
          Alcotest.test_case "close idempotent" `Quick test_cursor_close_is_idempotent;
          Alcotest.test_case "empty table" `Quick test_empty_table_retrieval;
          Alcotest.test_case "unknown column fails at open" `Quick
            test_unknown_column_fails_at_open;
          Alcotest.test_case "union all empty" `Quick test_union_all_branches_empty;
          Alcotest.test_case "static jscan thresholds" `Quick test_static_jscan_thresholds;
        ] );
      ( "baselines",
        [
          Alcotest.test_case "static plan frozen" `Quick test_static_optimizer_freezes_plan;
          Alcotest.test_case "static picks index" `Quick
            test_static_optimizer_picks_index_when_bound;
          Alcotest.test_case "static jscan" `Quick test_static_jscan_correct_and_threshold;
          Alcotest.test_case "dynamic beats static sweep" `Slow
            test_dynamic_beats_static_on_host_variables;
        ] );
    ]
