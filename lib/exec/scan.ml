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
