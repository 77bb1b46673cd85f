open Rdb_btree
open Rdb_data
open Rdb_engine

type step =
  | Deliver of Rid.t * Row.t
  | Continue
  | Done
  | Failed of Rdb_storage.Fault.failure

type candidate = {
  idx : Table.index;
  ranges : Btree.range list;
  residual : Predicate.t;
  est : float;
  est_exact : bool;
}

let synthetic_row table idx (key : Btree.key) =
  let row = Array.make (Schema.arity (Table.schema table)) Value.Null in
  Array.iteri
    (fun pos col_id -> if pos < Array.length key then row.(col_id) <- key.(pos))
    idx.Table.key_ids;
  row

let compile_key table idx restriction =
  Predicate.compile_key restriction (Table.schema table) ~key_ids:idx.Table.key_ids

(* --- batch-quantum cursors ------------------------------------------- *)

type status =
  | More
  | Exhausted
  | Faulted of Rdb_storage.Fault.failure

type batch = {
  rows : (Rid.t * Row.t) list;
  steps : int;
  status : status;
}

type cursor = { next_batch : budget:float -> batch }

(* Rows accumulate newest-first. *)
let finish on_yield rows steps status =
  on_yield ();
  { rows = List.rev rows; steps; status }

(* The budget is checked *before* each step, never mid-step, and the
   first step is unconditional: a batch always makes progress.  At
   [budget <= 0.] the batch ends after that first step without reading
   the clock — exact, because charged cost never decreases, so
   [cost () -. start >= budget] would hold anyway; [start] is read only
   for a positive budget. *)
let rec run_batch cost max_steps on_yield step_fn budget start rows steps =
  if steps > 0 && (steps >= max_steps || budget <= 0.0 || cost () -. start >= budget) then
    finish on_yield rows steps More
  else
    match step_fn () with
    | Deliver (rid, row) ->
        run_batch cost max_steps on_yield step_fn budget start
          ((rid, row) :: rows)
          (steps + 1)
    | Continue -> run_batch cost max_steps on_yield step_fn budget start rows (steps + 1)
    | Done -> finish on_yield rows (steps + 1) Exhausted
    | Failed f -> finish on_yield rows (steps + 1) (Faulted f)

let cursor_of_step ~cost ?(max_steps = max_int) ?(on_yield = fun () -> ()) step_fn =
  if max_steps < 1 then invalid_arg "Scan.cursor_of_step: max_steps < 1";
  {
    next_batch =
      (fun ~budget ->
        let start = if budget > 0.0 then cost () else 0.0 in
        run_batch cost max_steps on_yield step_fn budget start [] 0);
  }
