open Rdb_btree
open Rdb_data
open Rdb_engine
open Rdb_rid
open Rdb_storage

type outcome = Jscan.outcome = Rid_list of Rid.t array | Recommend_tscan of string

(* Scanned entries between two abandonment checks. *)
let check_every = 32

type scan_state = {
  cand : Scan.candidate;
  residual : Predicate.compiled_key;  (** [cand]'s residual, on its keys *)
  cursor : Btree.multi_cursor;
  mutable scanned : int;
  mutable accepted_here : int;
}

type t = {
  table : Table.t;
  meter : Cost.t;
  switch_ratio : float;
  trace : Trace.t;
  mutable queue : Scan.candidate list;
  mutable current : scan_state option;
  union : Rid_list.t;
  mutable accepted : int;
  tscan_cost : float;
  mutable finished : outcome option;
}

let create table meter cfg trace ~disjuncts =
  {
    table;
    meter;
    switch_ratio = cfg.Jscan.switch_ratio;
    trace;
    queue = disjuncts;
    current = None;
    union =
      Rid_list.create ~memory_budget:cfg.Jscan.memory_budget (Table.pool table) meter;
    accepted = 0;
    tscan_cost = Cost_model.tscan_cost table;
    finished = None;
  }

let finish t outcome =
  (match outcome with
  | Recommend_tscan reason -> Trace.emit t.trace (Trace.Use_tscan { reason })
  | Rid_list _ -> ());
  t.finished <- Some outcome;
  `Finished outcome

(* All-or-nothing competition check: the union cannot drop one
   disjunct, so the alternatives are "finish every scan and fetch the
   union" vs "Tscan now".  Two triggers:

   - certain: the rids already accepted plus the committed remaining
     scan work cost as much as the sequential scan — no projection
     involved, abandoning is safe;
   - projected: when the remaining scan investment is itself a
     significant fraction of the guaranteed best (>= 25%), trust the
     estimates; for cheap remainders we keep scanning instead, because
     a descent estimate can be off by several x and the first-stage
     "investment in uncertainty removal" is low (§3). *)
let check t st =
  let remaining_known =
    List.fold_left
      (fun acc c -> acc +. Cost_model.index_scan_cost c.Scan.idx ~entries:c.Scan.est)
      (Cost_model.index_scan_cost st.cand.Scan.idx
         ~entries:(Float.max 0.0 (st.cand.Scan.est -. float_of_int st.scanned)))
      t.queue
  in
  let certain_cost =
    Cost_model.rid_fetch_cost t.table ~k:t.accepted +. remaining_known
  in
  if certain_cost >= t.switch_ratio *. t.tscan_cost then
    Some
      (Printf.sprintf "accepted union already costs %.1f vs Tscan %.1f" certain_cost
         t.tscan_cost)
  else if remaining_known >= 0.25 *. t.tscan_cost then begin
    let this_projected =
      let progress =
        float_of_int st.scanned /. Float.max st.cand.Scan.est (float_of_int (st.scanned + 1))
      in
      if progress <= 0.0 then float_of_int st.accepted_here
      else float_of_int st.accepted_here /. progress
    in
    let projected_union =
      float_of_int (t.accepted - st.accepted_here)
      +. this_projected
      +. List.fold_left (fun acc c -> acc +. c.Scan.est) 0.0 t.queue
    in
    let projected_cost =
      Cost_model.rid_fetch_cost t.table ~k:(int_of_float (ceil projected_union))
      +. remaining_known
    in
    if projected_cost >= t.switch_ratio *. t.tscan_cost then
      Some
        (Printf.sprintf "projected union retrieval %.1f approaches Tscan %.1f"
           projected_cost t.tscan_cost)
    else None
  end
  else None

let rec step t =
  match t.finished with
  | Some o -> `Finished o
  | None -> (
      match t.current with
      | None -> (
          match t.queue with
          | [] ->
              if t.accepted = 0 then finish t (Rid_list [||])
              else begin
                let fetch = Cost_model.rid_fetch_cost t.table ~k:t.accepted in
                if fetch <= t.tscan_cost then
                  match Rid_list.to_sorted_array t.union with
                  | exception Fault.Injected f -> `Faulted f
                  | rids -> finish t (Rid_list rids)
                else
                  finish t
                    (Recommend_tscan
                       (Printf.sprintf "union of %d RIDs costs %.1f vs Tscan %.1f"
                          t.accepted fetch t.tscan_cost))
              end
          | cand :: rest ->
              t.queue <- rest;
              Trace.emit t.trace
                (Trace.Scan_started { index = cand.Scan.idx.Table.idx_name });
              t.current <-
                Some
                  {
                    cand;
                    residual = Scan.compile_key t.table cand.Scan.idx cand.Scan.residual;
                    cursor = Btree.multi_cursor cand.Scan.idx.Table.tree t.meter cand.Scan.ranges;
                    scanned = 0;
                    accepted_here = 0;
                  };
              `Working)
      | Some st -> (
          match Btree.multi_next st.cursor with
          | exception Fault.Injected f ->
              (* Positions are unchanged: the caller retries transient
                 faults by stepping again, or calls [abandon]. *)
              `Faulted f
          | None ->
              Trace.emit t.trace
                (Trace.Scan_completed
                   {
                     index = st.cand.Scan.idx.Table.idx_name;
                     kept = t.accepted;
                     scanned = st.scanned;
                   });
              t.current <- None;
              `Working
          | Some (key, rid) -> (
              st.scanned <- st.scanned + 1;
              Cost.charge_cpu t.meter 1;
              match
                if Predicate.test_key_maybe st.residual key then begin
                  Rid_list.add t.union rid;
                  t.accepted <- t.accepted + 1;
                  st.accepted_here <- st.accepted_here + 1
                end
              with
              | exception Fault.Injected f ->
                  (* Spill-write faults are never transient, so the
                     caller abandons; the half-consumed entry is moot. *)
                  `Faulted f
              | () ->
              if st.scanned mod check_every = 0 then begin
                match check t st with
                | Some reason ->
                    Trace.emit t.trace
                      (Trace.Scan_discarded
                         { index = st.cand.Scan.idx.Table.idx_name; reason });
                    Rid_list.destroy t.union;
                    ignore (finish t (Recommend_tscan reason));
                    step t
                | None -> `Working
              end
              else `Working)))

(* A union cannot drop one disjunct — every row is owed — so any
   non-retriable fault abandons the whole arrangement for the
   guaranteed-safe Tscan. *)
let abandon t f =
  if t.finished = None then begin
    Rid_list.destroy t.union;
    ignore
      (finish t
         (Recommend_tscan (Printf.sprintf "union abandoned: %s" (Fault.describe f))))
  end

let outcome t = t.finished

(* The union delivers a RID list (or a Tscan recommendation) through
   [outcome], not rows, so every productive step drains as [Continue]. *)
let run t =
  let policy =
    Tactic.Policy.(
      seal (stack [ retry_transient; absorb_with ~name:"abandon" (abandon t) ]))
  in
  (match
     Driver.drain (Driver.make policy)
       (fun () ->
         match step t with
         | `Working -> Scan.Continue
         | `Finished _ -> Scan.Done
         | `Faulted f -> Scan.Failed f)
       ~on_row:(fun _ _ -> ())
   with
  | Ok () -> ()
  | Error _ -> (* the abandon rung absorbs, never stops *) assert false);
  match t.finished with Some o -> o | None -> assert false
