open Rdb_data
open Rdb_engine
open Rdb_storage

type t = {
  table : Table.t;
  meter : Cost.t;
  rids : Rid.t array;
  restriction : Predicate.compiled;
  exclude : Rid.t -> bool;
  cache : Heap_file.fetch_cache;
      (** sorted RIDs revisit pages back to back; valid for one
          quantum — the retrieval's stage-2 step drops it at its end *)
  mutable pos : int;
  mutable skipped : int;
}

let create table meter ~rids ~restriction ~exclude =
  {
    table;
    meter;
    rids;
    restriction = Predicate.compile restriction (Table.schema table);
    exclude;
    cache = Heap_file.fetch_cache ();
    pos = 0;
    skipped = 0;
  }

let step t =
  if t.pos >= Array.length t.rids then Scan.Done
  else begin
    let rid = t.rids.(t.pos) in
    Cost.charge_cpu t.meter 1;
    if t.exclude rid then begin
      t.pos <- t.pos + 1;
      t.skipped <- t.skipped + 1;
      Scan.Continue
    end
    else begin
      (* Advance only after the fetch succeeds: a faulted quantum
         leaves [pos] on this RID so stepping again retries it. *)
      match Heap_file.fetch_via (Table.heap t.table) t.meter t.cache rid with
      | exception Fault.Injected f -> Scan.Failed f
      | None ->
          t.pos <- t.pos + 1;
          Scan.Continue
      | Some row ->
          t.pos <- t.pos + 1;
          if Predicate.test t.restriction row then
            Scan.Deliver (rid, row)
          else Scan.Continue
    end
  end

let drop_cache t = Heap_file.invalidate_cache t.cache
let skipped_delivered t = t.skipped
