open Rdb_btree
open Rdb_engine
open Rdb_storage

type t = {
  table : Table.t;
  idx : Table.index;
  restriction : Predicate.compiled_key;
  cursor : Btree.multi_cursor;
  mutable delivered : int;
}

let create table meter (cand : Scan.candidate) ~restriction =
  (* Self-sufficiency precondition. *)
  let needed = Predicate.columns restriction in
  if not (Table.index_covers cand.Scan.idx ~columns:needed) then
    invalid_arg "Sscan.create: index does not cover the restriction";
  {
    table;
    idx = cand.Scan.idx;
    restriction = Scan.compile_key table cand.Scan.idx restriction;
    cursor = Btree.multi_cursor cand.Scan.idx.Table.tree meter cand.Scan.ranges;
    delivered = 0;
  }

let step t =
  (* [multi_next] touches leaves before advancing and opens range
     cursors before consuming the range, so a faulted quantum is
     retryable in place. *)
  match Btree.multi_next t.cursor with
  | exception Fault.Injected f -> Scan.Failed f
  | None -> Scan.Done
  | Some (key, rid) ->
      (* Test the key; build the schema-width row only to deliver it. *)
      if Predicate.test_key t.restriction key then begin
        t.delivered <- t.delivered + 1;
        Scan.Deliver (rid, Scan.synthetic_row t.table t.idx key)
      end
      else Scan.Continue

let delivered t = t.delivered
