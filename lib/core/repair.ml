open Rdb_btree
open Rdb_data
open Rdb_engine
open Rdb_exec
open Rdb_storage

type t = {
  table : Table.t;
  index : string;
  new_tree : Btree.t;
  rebuild_id : int;  (* two-phase manifest record (DESIGN.md §15) *)
  key_of : Row.t -> Btree.key;
  meter : Cost.t;
  cursor : Heap_file.cursor;
  trace : Trace.t;
  mutable pending : (Rid.t * Row.t) option;
      (* a row read from the heap whose insert faulted: replayed first *)
  mutable entries : int;
  driver : Driver.t;  (* the fault ladder and its consecutive-fault count *)
  mutable result : bool option;
}

(* Rows copied per step. *)
let batch = 64

(* Consecutive transient faults tolerated before the rebuild gives up. *)
let retry_limit = 8

(* The repair ladder (DESIGN.md §17): the same bounded retry with
   deterministic backoff as retrieval, then give up — when the ground
   truth itself is unreadable (or persistently flaky) the rebuild
   stops and the index goes back to quarantine with an escalated
   backoff. *)
let fault_policy trace meter =
  Tactic.Policy.(
    seal
      ~observe:(fun f ~consec:_ ->
        Trace.emit trace
          (Trace.Fault_detected { site = "repair"; fault = Fault.describe f }))
      (stack
         [
           bounded_retry ~limit:retry_limit ~penalize:(fun _ ~consec ->
               (* The i-th consecutive retry charges i physical reads. *)
               for _ = 1 to consec do
                 Cost.charge_physical meter
               done;
               Trace.emit trace
                 (Trace.Fault_retry
                    { site = "repair"; attempt = consec; penalty = consec }));
           give_up ~name:"give-up";
         ]))

let create table ~index =
  let idx =
    match Table.find_index table index with
    | Some idx -> idx
    | None -> invalid_arg ("Repair.create: unknown index " ^ index)
  in
  let meter = Cost.create () in
  let trace = Trace.create () in
  let new_tree =
    Btree.create ~fanout:(Btree.fanout idx.Table.tree) (Table.pool table)
  in
  (* Two-phase rebuild: register the side tree in the durable manifest
     before copying a single row.  A crash at any later step boundary
     leaves this record [Building] — a detectable orphan recovery
     discards — never a half-swapped tree. *)
  let rebuild_id =
    Manifest.begin_rebuild
      (Buffer_pool.manifest (Table.pool table))
      ~table:(Table.name table) ~index ~side_file:(Btree.file_id new_tree)
  in
  let t =
    {
      table;
      index;
      new_tree;
      rebuild_id;
      key_of = Table.index_key idx;
      meter;
      cursor = Heap_file.scan (Table.heap table) meter;
      trace;
      pending = None;
      entries = 0;
      driver = Driver.make (fault_policy trace meter);
      result = None;
    }
  in
  Trace.emit t.trace (Trace.Repair_started { index });
  Initial_stage.note_health table t.trace
    (Health.begin_rebuild (Table.health table) index);
  t

let entries t = t.entries
let spent t = Cost.total t.meter
let trace t = t.trace

let finish t ok =
  t.result <- Some ok;
  (* Manifest commit and tree swap happen in the same driver step, and
     crashes only fire between steps — the pair is atomic.  A failed
     rebuild aborts its record so the side tree is never mistaken for
     an orphan of a crash. *)
  let manifest = Buffer_pool.manifest (Table.pool t.table) in
  if ok then begin
    Manifest.commit_rebuild manifest t.rebuild_id;
    Table.replace_index t.table ~name:t.index t.new_tree
  end
  else Manifest.abort_rebuild manifest t.rebuild_id;
  Initial_stage.note_health t.table t.trace
    (Health.end_rebuild (Table.health t.table) ~now:(Table.now t.table) ~ok t.index);
  (match Buffer_pool.metrics (Table.pool t.table) with
  | None -> ()
  | Some m ->
      let module M = Rdb_util.Metrics in
      M.incr (M.counter m (if ok then "repair.completed" else "repair.failed"));
      M.add (M.counter m "repair.entries") t.entries);
  Trace.emit t.trace
    (Trace.Repair_done { index = t.index; entries = t.entries; cost = spent t; ok });
  `Done ok

(* One copy as a scan step.  The heap cursor retries the same page
   after a faulted read and (key, rid) inserts are idempotent, so
   transient faults replay the in-flight row instead of dropping or
   duplicating it. *)
let copy_step t () =
  let insert_row (rid, row) =
    t.pending <- Some (rid, row);
    Btree.insert t.new_tree t.meter (t.key_of row) rid;
    t.pending <- None;
    t.entries <- t.entries + 1
  in
  match
    match t.pending with
    | Some p ->
        insert_row p;
        `Copied
    | None -> (
        match Heap_file.next t.cursor with
        | None -> `Copied_all
        | Some p ->
            insert_row p;
            `Copied)
  with
  | `Copied -> Scan.Continue
  | `Copied_all -> Scan.Done
  | exception Fault.Injected f -> Scan.Failed f

(* One scheduler quantum: one driver pump of up to [batch] copies,
   which a fault ends early once the ladder has settled it. *)
let step t =
  match t.result with
  | Some ok -> `Done ok
  | None -> (
      match
        Driver.pump t.driver ~max_steps:batch (copy_step t) ~on_row:(fun _ _ -> ())
      with
      | Driver.More -> `Working
      | Driver.Exhausted -> finish t true
      | Driver.Stopped _ -> finish t false)

let grant t ~budget ~max_steps =
  let res = ref None in
  Driver.clocked_loop
    ~spent:(fun () -> Cost.total t.meter)
    ~budget ~max_steps
    ~stop:(fun _ -> !res <> None)
    ~step:(fun () ->
      match step t with
      | `Working -> `Continue
      | `Done ok ->
          res := Some ok;
          `Finished);
  !res
