open Rdb_engine
open Rdb_storage

type t = {
  meter : Cost.t;
  restriction : Predicate.compiled;
  cursor : Heap_file.cursor;
  mutable examined : int;
  mutable finished : bool;
}

let create table meter restriction =
  if not (Predicate.is_bound restriction) then invalid_arg "Tscan.create: unbound restriction";
  {
    meter;
    restriction = Predicate.compile restriction (Table.schema table);
    cursor = Heap_file.scan (Table.heap table) meter;
    examined = 0;
    finished = false;
  }

let step t =
  if t.finished then Scan.Done
  else begin
    (* [Heap_file.next_row] loads pages before advancing its cursor, so
       a faulted quantum leaves the scan where it was: stepping again
       retries the same page. *)
    match Heap_file.next_row t.cursor with
    | exception Fault.Injected f -> Scan.Failed f
    | row when row == Heap_file.end_of_scan ->
        t.finished <- true;
        Scan.Done
    | row ->
        t.examined <- t.examined + 1;
        Cost.charge_cpu t.meter 1;
        (* Test the stored row where it lies and deliver it as is. *)
        if Predicate.test t.restriction row then Scan.Deliver (Heap_file.rid t.cursor, row)
        else Scan.Continue
  end

let examined t = t.examined
