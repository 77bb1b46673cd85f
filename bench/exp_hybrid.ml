(* Tactic combinators: compositionality and zero-cost glue.

   DESIGN.md §17 claims the combinator algebra (1) expresses genuinely
   new strategies no bespoke machine implements — here an Fscan that
   falls ORELSE back to a fresh Tscan on the first fault that reaches
   it, [distinct]-guarded against redelivery — and (2) is pure glue:
   identity-law wraps (limit ∞, two one-sided races, a never-firing
   preempt) charge nothing, because combinators never touch blocks or
   meters.  This experiment measures both:

   - clean run: the hybrid answers the oracle row set at Fscan cost;
   - fault sweep: transient index faults trip the ORELSE switch, the
     row set stays invariant, and the price is Tscan-shaped cost;
   - dead index: the persistent-fault worst case, same invariant;
   - glue overhead: a 4-deep identity-wrapped Tscan is byte-identical
     in rows and charged cost to the bare Tscan. *)

open Rdb_data
open Rdb_engine
open Rdb_exec
open Rdb_storage
module Btree = Rdb_btree.Btree
module R = Rdb_core.Retrieval

let name = "hybrid"
let description = "tactic combinators: hybrid fscan-orelse-tscan, identity wraps are free"

let schema =
  Schema.make
    [
      Schema.col "ID" Value.T_int;
      Schema.col "X" Value.T_int;
      Schema.col "Y" Value.T_int;
      Schema.col "S" Value.T_str;
    ]

type fixture = { table : Table.t; pool : Buffer_pool.t }

let fixture ?(rows = 8000) () =
  let pool = Buffer_pool.create ~capacity:512 () in
  let table = Table.create ~page_bytes:1024 pool ~name:"T" schema in
  let rng = Rdb_util.Prng.create ~seed:23 in
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
  { table; pool }

let pred =
  let open Predicate in
  And [ "X" <% Value.int 25; "Y" <% Value.int 450 ]

let row_key rows =
  List.sort compare (List.map (fun r -> Value.to_string (Row.get r 0)) rows)

(* Pump a composed tactic to exhaustion through the shared driver
   under a retry-transient ladder; returns (rows, charged cost). *)
let drain_tactic m tac =
  let out = ref [] in
  let d = Driver.make Tactic.Policy.(seal (stack [ retry_transient ])) in
  (match Driver.drain d tac ~on_row:(fun _ r -> out := r :: !out) with
  | Ok () -> ()
  | Error _ -> ());
  (List.rev !out, Cost.total m)

(* The hybrid: Fscan over X_IDX's full range, ORELSE a fresh Tscan on
   the first fault that reaches the composition, distinct-guarded.
   [switched] reports whether the fallback arm ever armed. *)
let hybrid f =
  let idx = Option.get (Table.find_index f.table "X_IDX") in
  let m = Cost.create () in
  let cand =
    {
      Scan.idx;
      ranges = [ Btree.full_range ];
      residual = pred;
      est = 0.0;
      est_exact = false;
    }
  in
  let fscan = Fscan.create f.table m cand ~restriction:pred in
  let switched = ref false in
  let to_tscan _ =
    switched := true;
    let t = Tscan.create f.table m pred in
    fun () -> Tscan.step t
  in
  let rows, cost =
    drain_tactic m
      Tactic.(
        distinct (Rdb_rid.Rid_set.create ()) (orelse (fun () -> Fscan.step fscan) to_tscan))
  in
  (rows, cost, !switched)

let bare_tscan f =
  let m = Cost.create () in
  let t = Tscan.create f.table m pred in
  drain_tactic m (fun () -> Tscan.step t)

(* The same Tscan under four identity-law wraps: if combinators are
   pure glue, rows and charged cost are byte-identical to the bare
   run. *)
let wrapped_tscan f =
  let m = Cost.create () in
  let t = Tscan.create f.table m pred in
  drain_tactic m
    Tactic.(
      limit max_int
        (race
           ~choose:(fun () -> `Right)
           ~left:halt
           ~right:
             (race
                ~choose:(fun () -> `Left)
                ~left:(preempt (fun () -> None) (fun () -> Tscan.step t))
                ~right:halt)))

let with_injector f plan body =
  Buffer_pool.flush f.pool;
  let inj = Option.map Fault.create plan in
  Buffer_pool.set_injector f.pool inj;
  let r = body () in
  Buffer_pool.set_injector f.pool None;
  (r, inj)

let run () =
  Bench_common.section "Experiment hybrid — tactic combinators as strategy glue";
  let f = fixture () in

  (* --- clean runs -------------------------------------------------- *)
  let (base_rows, base_cost), _ = with_injector f None (fun () -> bare_tscan f) in
  let (wrap_rows, wrap_cost), _ = with_injector f None (fun () -> wrapped_tscan f) in
  let (hyb_rows, hyb_cost, hyb_switched), _ = with_injector f None (fun () -> hybrid f) in
  let dyn_rows, dyn_summary =
    Buffer_pool.flush f.pool;
    R.run f.table (R.request pred)
  in
  Bench_common.subsection "clean (cold pool each run)";
  Bench_common.table
    ~header:[ "strategy"; "rows"; "total cost" ]
    [
      [ "bare tscan"; string_of_int (List.length base_rows); Bench_common.f1 base_cost ];
      [
        "tscan under 4 identity wraps";
        string_of_int (List.length wrap_rows);
        Bench_common.f1 wrap_cost;
      ];
      [
        "hybrid fscan-orelse-tscan";
        string_of_int (List.length hyb_rows);
        Bench_common.f1 hyb_cost;
      ];
      [
        "dynamic optimizer";
        string_of_int (List.length dyn_rows);
        Bench_common.f1 dyn_summary.R.total_cost;
      ];
    ];

  (* --- fault sweep -------------------------------------------------- *)
  let x_file = Btree.file_id (Option.get (Table.find_index f.table "X_IDX")).Table.tree in
  let rates = [ 0.05; 0.2 ] in
  let sweep =
    List.map
      (fun rate ->
        let plan =
          Fault.plan ~transient_read_rate:rate ~transient_classes:[ Fault.Index ]
            ~seed:91 ()
        in
        let r, _ = with_injector f (Some plan) (fun () -> hybrid f) in
        (Printf.sprintf "transient %.2f" rate, r))
      rates
  in
  let dead, _ =
    with_injector f
      (Some (Fault.plan ~persistent_files:[ x_file ] ~seed:5 ()))
      (fun () -> hybrid f)
  in
  let sweep = sweep @ [ ("dead X_IDX", dead) ] in
  Bench_common.subsection "hybrid under index faults (cold pool each run)";
  Bench_common.table
    ~header:[ "scenario"; "rows"; "total cost"; "orelse switched" ]
    (List.map
       (fun (scenario, (rows, cost, switched)) ->
         [
           scenario;
           string_of_int (List.length rows);
           Bench_common.f1 cost;
           string_of_bool switched;
         ])
       sweep);

  (* --- checkpoints -------------------------------------------------- *)
  Bench_common.subsection "paper checkpoints";
  let base_key = row_key base_rows in
  Printf.printf "hybrid answers the oracle row set (%d rows): %b\n"
    (List.length hyb_rows)
    (row_key hyb_rows = base_key && row_key dyn_rows = base_key);
  Printf.printf "clean hybrid never armed its fallback: %b\n" (not hyb_switched);
  Printf.printf "identity wraps leave rows byte-identical: %b\n"
    (wrap_rows = base_rows);
  Printf.printf "identity wraps charge zero extra cost (%.1f = %.1f): %b\n"
    wrap_cost base_cost
    (wrap_cost = base_cost);
  Printf.printf "row set invariant across every fault scenario: %b\n"
    (List.for_all (fun (_, (rows, _, _)) -> row_key rows = base_key) sweep);
  Printf.printf "the ORELSE switch actually fired under faults: %b\n"
    (List.exists (fun (_, (_, _, switched)) -> switched) sweep);
  let _, (_, dead_cost, dead_switched) = List.nth sweep (List.length sweep - 1) in
  Printf.printf "dead index: fallback pays cost, not rows (%.1f >= %.1f): %b\n"
    dead_cost base_cost
    (dead_switched && dead_cost >= base_cost);
  Bench_common.metric ~dir:Bench_common.Lower_better "cost_hybrid_clean" hyb_cost;
  Bench_common.metric ~dir:Bench_common.Lower_better "cost_hybrid_dead_index" dead_cost;
  Bench_common.metric ~dir:Bench_common.Lower_better "cost_identity_wraps" wrap_cost;
  Bench_common.metric "wrap_overhead_factor" (wrap_cost /. base_cost)
