(* Cross-tactic differential oracle.

   For random schemas, data, and predicates, run every applicable
   retrieval strategy — the dynamic optimizer under both goals (which
   exercises Tscan/Sscan/Fscan/Jscan/Uscan and the §7 tactics), the
   sort path, arbitrary competition configurations, the raw Tscan
   machine, and both static baselines [SACL79]/[MoHa90] — and assert
   that all of them return exactly the heap's row multiset.  This
   generalizes `rows invariant under competition configs` in
   test_core.ml into a strategy-vs-strategy oracle: any divergence in
   *results* (rather than cost) between two strategies is a bug in one
   of them, and the full-scan oracle names the guilty side.

   A second property repeats the differential run under a nonzero
   transient fault rate on the index files: the degradation policies
   (retry, quarantine, fallback) must also be result-invariant. *)

open Rdb_data
open Rdb_engine
open Rdb_exec
module R = Rdb_core.Retrieval
module SO = Rdb_core.Static_optimizer
module SJ = Rdb_core.Static_jscan
module Goal = Rdb_core.Goal
module Prng = Rdb_util.Prng

let check = Alcotest.(check bool)

let schema =
  Schema.make
    [
      Schema.col "ID" Value.T_int;
      Schema.col "X" Value.T_int;
      Schema.col "Y" Value.T_int;
      Schema.col "S" Value.T_str;
    ]

(* A fresh random table on its own small pool.  Index availability is
   itself randomized (X_IDX always exists so estimation has something
   to hold on to; Y_IDX / XY_IDX come and go), which moves the tactic
   chooser across its whole range.  The pool's shard count is
   randomized too (1–4, from the seed): every differential case — with
   and without fault injection — thereby asserts that buffer-pool
   sharding never changes results or degradation behavior. *)
let build_table ~seed ~rows ~xmax ~ymax ~with_y_idx ~with_xy_idx =
  let pool =
    Rdb_storage.Buffer_pool.create ~shards:(1 + (abs seed mod 4)) ~capacity:128 ()
  in
  let table = Table.create ~page_bytes:1024 pool ~name:"T" schema in
  let rng = Prng.create ~seed in
  for i = 0 to rows - 1 do
    ignore
      (Table.insert table
         [|
           Value.int i;
           Value.int (Prng.int rng xmax);
           Value.int (Prng.int rng ymax);
           Value.str (Printf.sprintf "s%04d" (Prng.int rng 50));
         |])
  done;
  ignore (Table.create_index table ~name:"X_IDX" ~columns:[ "X" ] ());
  if with_y_idx then ignore (Table.create_index table ~name:"Y_IDX" ~columns:[ "Y" ] ());
  if with_xy_idx then
    ignore (Table.create_index table ~name:"XY_IDX" ~columns:[ "X"; "Y" ] ());
  table

(* Random predicate templates (with optional host variables). *)
let pred_of rng ~xmax ~ymax =
  let open Predicate in
  let x () = Prng.int rng xmax and y () = Prng.int rng ymax in
  match Prng.int rng 8 with
  | 0 ->
      let lo = x () in
      (And [ "X" >=% Value.int lo; "X" <=% Value.int (lo + Prng.int rng 10);
             between "Y" (Value.int 0) (Value.int (y ())) ],
       [])
  | 1 -> (("X" =% Value.int (x ())), [])
  | 2 -> (Or [ "X" =% Value.int (x ()); "Y" <% Value.int (y () / 4) ], [])
  | 3 ->
      (Or
         [
           In_list ("X", [ Const (Value.int (x ())); Const (Value.int (x ())) ]);
           "Y" =% Value.int (y ());
         ],
       [])
  | 4 -> (And [ Not ("X" <% Value.int (x ())); "Y" <% Value.int (y ()) ], [])
  | 5 -> ((param_cmp "X" Ge "A"), [ ("A", Value.int (x ())) ])
  | 6 ->
      (And [ "X" =% Value.int (x ()); "Y" =% Value.int (y ());
             "S" =% Value.str (Printf.sprintf "s%04d" (Prng.int rng 50)) ],
       [])
  | _ -> (("Y" >=% Value.int (y () / 2)), [])

let oracle table pred =
  let m = Rdb_storage.Cost.create () in
  let out = ref [] in
  Rdb_storage.Heap_file.iter (Table.heap table) m (fun _ row ->
      if Predicate.eval pred (Table.schema table) row then out := row :: !out);
  List.rev !out

let sort_rows rows = List.sort (fun a b -> Row.compare_at [| 0 |] a b) rows

let raw_tscan table pred =
  let m = Rdb_storage.Cost.create () in
  let t = Tscan.create table m pred in
  let out = ref [] in
  let rec loop () =
    match Tscan.step t with
    | Scan.Deliver (_, row) ->
        out := row :: !out;
        loop ()
    | Scan.Continue -> loop ()
    | Scan.Done -> ()
    | Scan.Failed _ -> loop () (* retry-safe cursors: step again *)
  in
  loop ();
  List.rev !out

(* Pump a composed tactic to exhaustion through the shared driver
   under a [retry-transient] Policy ladder — the oracle-side twin of
   how every engine loop drives its tactics. *)
let drain_tactic tac =
  let out = ref [] in
  let d = Driver.make Tactic.Policy.(seal (stack [ retry_transient ])) in
  (match Driver.drain d tac ~on_row:(fun _ r -> out := r :: !out) with
  | Ok () -> ()
  | Error _ -> ());
  List.rev !out

(* ISSUE 10's compositionality proof: a genuinely new hybrid strategy
   from combinators alone — an Fscan in X-key order that falls back
   ORELSE to a fresh Tscan on the first fault that reaches it,
   [distinct]-guarded so the overlapping arms never redeliver. *)
let hybrid_strategy table bound () =
  let idx = Option.get (Table.find_index table "X_IDX") in
  let m = Rdb_storage.Cost.create () in
  let cand =
    { Scan.idx; ranges = [ Rdb_btree.Btree.full_range ];
      residual = bound; est = 0.0; est_exact = false }
  in
  let fscan = Fscan.create table m cand ~restriction:bound in
  let to_tscan _ = let t = Tscan.create table m bound in fun () -> Tscan.step t in
  drain_tactic
    Tactic.(distinct (Rdb_rid.Rid_set.create ()) (orelse (fun () -> Fscan.step fscan) to_tscan))

(* The seed composes 2–3 random combinators around a Tscan; each wrap
   is an identity by its .mli law, so the composition must still match
   the oracle (and, in the faulty runs, under fault injection too). *)
let wrap_random rng tac =
  let wrap tac =
    match Prng.int rng 5 with
    | 0 -> Tactic.limit max_int tac
    | 1 -> Tactic.preempt (fun () -> None) tac
    | 2 -> Tactic.distinct (Rdb_rid.Rid_set.create ()) tac
    | 3 -> Tactic.then_ tac (fun () -> Tactic.halt)
    | _ -> Tactic.race ~choose:(fun () -> `Left) ~left:tac ~right:Tactic.halt
  in
  let rec go n tac = if n = 0 then tac else go (n - 1) (wrap tac) in
  go (2 + Prng.int rng 2) tac

let random_config rng =
  {
    R.default_config with
    R.jscan =
      {
        Jscan.default_config with
        Jscan.switch_ratio = Prng.float rng 3.0;
        scan_cost_cap = Prng.float rng 2.0;
        check_every = 1 + Prng.int rng 400;
        memory_budget = 25 + Prng.int rng 1000;
        simultaneous = Prng.bool rng;
      };
    R.speed_ratio = 0.25 +. Prng.float rng 3.0;
    R.feedback_rate =
      (match Prng.int rng 3 with 0 -> 0.0 | 1 -> 0.25 +. Prng.float rng 0.5 | _ -> 1.0);
  }

(* Every strategy that must agree, as (name, rows) thunks.  The dynamic
   thunks feed their summaries to [note] (the fault-vacuity counter). *)
let strategies ~note rng table pred env =
  let bound = Predicate.simplify (Predicate.bind pred env) in
  let dyn ?config request () =
    let rows, summary = R.run ?config table request in
    note summary;
    rows
  in
  [
    ("dynamic total-time", dyn (R.request ~env ~explicit_goal:Goal.Total_time pred));
    ("dynamic fast-first", dyn (R.request ~env ~explicit_goal:Goal.Fast_first pred));
    ("dynamic sorted", dyn (R.request ~env ~order_by:[ "Y" ] pred));
    ("dynamic random config", dyn ~config:(random_config rng) (R.request ~env pred));
    (* Run the same request twice at full learning rate: the second run
       plans with whatever the first one taught the table's feedback
       store, and must still produce the oracle rows (corrections steer
       cost, never results). *)
    ( "dynamic feedback repeat",
      fun () ->
        let config = { R.default_config with R.feedback_rate = 1.0 } in
        ignore (dyn ~config (R.request ~env pred) ());
        dyn ~config (R.request ~env pred) () );
    ("dynamic hybrid (fscan orelse tscan)", hybrid_strategy table bound);
    ( "dynamic tactic-wrapped tscan",
      fun () ->
        let m = Rdb_storage.Cost.create () in
        let t = Tscan.create table m bound in
        drain_tactic (wrap_random rng (fun () -> Tscan.step t)) );
    ("raw tscan", fun () -> raw_tscan table bound);
    ("static mean-point [SACL79]", fun () ->
        let plan = SO.compile table pred ~env:[] in
        (SO.execute table plan pred ~env).SO.rows);
    ("static jscan [MoHa90]", fun () -> (SJ.run table pred ~env).SJ.rows);
  ]

(* Vacuity guard: the fault property must actually exercise the
   degradation machinery, not just run fault-free by accident. *)
let fault_retries_seen = ref 0

let count_degradations (s : R.summary) =
  List.iter
    (function
      | Rdb_exec.Trace.Fault_retry _ | Rdb_exec.Trace.Index_quarantined _
      | Rdb_exec.Trace.Fallback_tscan _ ->
          incr fault_retries_seen
      | _ -> ())
    s.R.trace

let run_case ?(faulty = false) (seed, rows, knobs) =
  let rng = Prng.create ~seed:(seed + (7 * knobs)) in
  let xmax = 10 + Prng.int rng 90 in
  let ymax = 50 + Prng.int rng 950 in
  let table =
    build_table ~seed ~rows ~xmax ~ymax ~with_y_idx:(knobs mod 2 = 0)
      ~with_xy_idx:(knobs mod 3 = 0)
  in
  let pred, env = pred_of rng ~xmax ~ymax in
  let bound = Predicate.simplify (Predicate.bind pred env) in
  let expected = sort_rows (oracle table bound) in
  let injector =
    if faulty then begin
      let rate = 0.02 +. Prng.float rng 0.25 in
      (* sometimes also exhaust the spill store: a tight write budget
         turns spilled RID lists into [Spill_full] faults, whose
         fallback path must agree with the oracle too *)
      let spill_write_budget =
        if Prng.bool rng then Some (Prng.int rng 8) else None
      in
      let inj =
        Rdb_storage.Fault.create
          (Rdb_storage.Fault.plan ~transient_read_rate:rate
             ~transient_classes:[ Rdb_storage.Fault.Index ] ?spill_write_budget
             ~seed:(seed + 1) ())
      in
      (* transient faults fire on physical reads only: flush so the
         retrievals start cold instead of fault-immune in cache *)
      Rdb_storage.Buffer_pool.flush (Table.pool table);
      Rdb_storage.Buffer_pool.set_injector (Table.pool table) (Some inj);
      Some inj
    end
    else None
  in
  let note = if faulty then count_degradations else fun _ -> () in
  let strats =
    if faulty then
      (* the static baselines predate the failure channel; the fault
         property pins the dynamic degradation paths only *)
      List.filter
        (fun (name, _) -> String.length name >= 7 && String.sub name 0 7 = "dynamic")
        (strategies ~note rng table pred env)
    else strategies ~note rng table pred env
  in
  let outcome =
    List.for_all
      (fun (name, run) ->
        if faulty then Rdb_storage.Buffer_pool.flush (Table.pool table);
        let got = sort_rows (run ()) in
        if got = expected then true
        else begin
          Printf.printf "strategy %S diverged on pred %s (%d vs %d rows)\n" name
            (Predicate.to_string bound) (List.length got) (List.length expected);
          false
        end)
      strats
  in
  (match injector with
  | Some _ -> Rdb_storage.Buffer_pool.set_injector (Table.pool table) None
  | None -> ());
  outcome

let case_gen = QCheck.(triple (int_bound 1_000_000) (int_range 150 500) (int_bound 11))

(* Nightly CI raises the case count via QCHECK_COUNT; a failing case
   replays from the seed qcheck-alcotest prints (QCHECK_SEED). *)
let qcount default =
  match Option.bind (Sys.getenv_opt "QCHECK_COUNT") int_of_string_opt with
  | Some n when n > 0 -> n
  | _ -> default

let prop_all_tactics_agree =
  QCheck.Test.make ~name:"all tactics return the oracle multiset" ~count:(qcount 60)
    case_gen
    (fun case -> run_case case)

let prop_all_tactics_agree_under_faults =
  QCheck.Test.make ~name:"dynamic tactics agree under transient index faults"
    ~count:(qcount 50) case_gen
    (fun case -> run_case ~faulty:true case)

(* Make sure the differential sweep actually visits the tactic space:
   fixed scenarios that must land on each tactic kind. *)
let test_tactic_coverage () =
  let table =
    build_table ~seed:3 ~rows:600 ~xmax:50 ~ymax:500 ~with_y_idx:true ~with_xy_idx:true
  in
  let open Predicate in
  let seen = Hashtbl.create 16 in
  let note ?explicit_goal ?order_by ?projection pred =
    let rows, s = R.run table (R.request ?explicit_goal ?order_by ?projection pred) in
    let bound = Predicate.simplify pred in
    check
      (Printf.sprintf "coverage run correct (%s)" (R.tactic_to_string s.R.tactic))
      true
      (List.length rows = List.length (oracle table bound));
    (* the summary's armed ladder and the pure description must never
       drift apart (EXPLAIN prints the latter for probe sides) *)
    check "policy description in lockstep" true
      (s.R.policy = R.policy_description s.R.tactic);
    Hashtbl.replace seen s.R.tactic ()
  in
  note ~explicit_goal:Goal.Total_time (Like ("S", "s000%"));
  note ~explicit_goal:Goal.Total_time ~projection:[ "X"; "Y" ]
    (And [ "X" =% Value.int 5; "Y" <% Value.int 250 ]);
  note ~explicit_goal:Goal.Total_time ("X" =% Value.int 5);
  note ~explicit_goal:Goal.Fast_first ("X" =% Value.int 5);
  note ~explicit_goal:Goal.Fast_first ~order_by:[ "X" ]
    (And [ "Y" <% Value.int 100; "S" =% Value.str "s0001" ]);
  note (Or [ "X" =% Value.int 5; "Y" =% Value.int 7 ]);
  note ("X" >% Value.int 100_000);
  let tactics = Hashtbl.fold (fun k () acc -> k :: acc) seen [] in
  let expect kind name =
    check (Printf.sprintf "tactic %s visited" name) true (List.mem kind tactics)
  in
  expect R.Static_tscan "tscan";
  expect R.Background_only "background-only";
  expect R.Fast_first_tactic "fast-first";
  expect R.Union_tactic "union";
  expect R.Cancelled "cancelled";
  check "covering tactic visited" true
    (List.mem R.Index_only_tactic tactics || List.mem R.Static_sscan tactics);
  check "ordered tactic visited" true
    (List.mem R.Sorted_tactic tactics || List.mem R.Static_fscan tactics)

(* Covering projections deliver synthetic rows (key columns only); the
   differential check compares the projected columns. *)
let test_projection_differential () =
  let table =
    build_table ~seed:11 ~rows:800 ~xmax:40 ~ymax:400 ~with_y_idx:true ~with_xy_idx:true
  in
  let open Predicate in
  let pred = And [ "X" =% Value.int 7; "Y" <% Value.int 300 ] in
  let key row = (Row.get row 1, Row.get row 2) in
  let expected = List.sort compare (List.map key (oracle table pred)) in
  List.iter
    (fun goal ->
      let rows, _ =
        R.run table (R.request ~explicit_goal:goal ~projection:[ "X"; "Y" ] pred)
      in
      check "projected multiset matches" true
        (List.sort compare (List.map key rows) = expected))
    [ Goal.Total_time; Goal.Fast_first ]

let () =
  Alcotest.run "rdb_oracle"
    [
      ( "differential",
        [
          QCheck_alcotest.to_alcotest prop_all_tactics_agree;
          QCheck_alcotest.to_alcotest prop_all_tactics_agree_under_faults;
          (* runs after the fault property (alcotest is sequential) *)
          Alcotest.test_case "fault injection was exercised" `Quick (fun () ->
              check "saw at least one degradation event" true (!fault_retries_seen > 0));
        ] );
      ( "coverage",
        [
          Alcotest.test_case "tactic space visited" `Quick test_tactic_coverage;
          Alcotest.test_case "projection differential" `Quick test_projection_differential;
        ] );
    ]
