open Rdb_btree
open Rdb_engine
open Rdb_rid
open Rdb_storage

type t = {
  table : Table.t;
  meter : Cost.t;
  idx : Table.index;
  restriction : Predicate.compiled;
  prefilter : Predicate.compiled_key;
      (** the restriction on the key alone: rejects only on definite
          evidence, columns outside the key reading as NULL *)
  cursor : Btree.multi_cursor;
  cache : Heap_file.fetch_cache;
      (** page-handle cache for the record fetches; its handles are
          stamp-checked, so it may outlive a step — a retrieval
          stepping the scan drops it at the end of each step, a static
          run keeps it for the whole run *)
  mutable filter : Filter.t option;
  mutable pending : (Btree.key * Rdb_data.Rid.t) option;
      (** entry pulled from the cursor whose quantum has not completed:
          the cursor has already moved past it, so a faulted heap fetch
          must find it here on retry rather than lose it *)
  mutable fetched : int;
  mutable rejected : int;
  mutable saved : int;
}

let create table meter (cand : Scan.candidate) ~restriction =
  if not (Predicate.is_bound restriction) then invalid_arg "Fscan.create: unbound restriction";
  {
    table;
    meter;
    idx = cand.Scan.idx;
    restriction = Predicate.compile restriction (Table.schema table);
    prefilter = Scan.compile_key table cand.Scan.idx restriction;
    cursor = Btree.multi_cursor cand.Scan.idx.Table.tree meter cand.Scan.ranges;
    cache = Heap_file.fetch_cache ();
    filter = None;
    pending = None;
    fetched = 0;
    rejected = 0;
    saved = 0;
  }

let set_filter t f = t.filter <- Some f

let step t =
  match
    match t.pending with
    | Some e -> Some e
    | None -> (
        match Btree.multi_next t.cursor with
        | None -> None
        | Some e ->
            (* The cursor has moved past [e]; park it so a faulted
               heap fetch below does not lose it. *)
            t.pending <- Some e;
            Cost.charge_cpu t.meter 1;
            Some e)
  with
  | exception Fault.Injected f -> Scan.Failed f
  | None -> Scan.Done
  | Some (key, rid) ->
      (* Reject on the key alone when the restriction definitely
         fails, then through the background filter, then fetch. *)
      if not (Predicate.test_key_maybe t.prefilter key) then begin
        t.pending <- None;
        Scan.Continue
      end
      else begin
        match t.filter with
        | Some f when not (Filter.mem f rid) ->
            t.pending <- None;
            t.saved <- t.saved + 1;
            Scan.Continue
        | _ -> (
            match Heap_file.fetch_via (Table.heap t.table) t.meter t.cache rid with
            | exception Fault.Injected f -> Scan.Failed f
            | None ->
                t.pending <- None;
                t.fetched <- t.fetched + 1;
                Scan.Continue
            | Some row ->
                t.pending <- None;
                t.fetched <- t.fetched + 1;
                if Predicate.test t.restriction row then Scan.Deliver (rid, row)
                else begin
                  t.rejected <- t.rejected + 1;
                  Scan.Continue
                end)
      end

let drop_cache t = Heap_file.invalidate_cache t.cache

let fetched t = t.fetched
let rejected_after_fetch t = t.rejected
let saved_by_filter t = t.saved
