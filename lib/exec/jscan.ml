open Rdb_btree
open Rdb_data
open Rdb_engine
open Rdb_rid
open Rdb_storage
module Dynarray = Rdb_util.Dynarray

type config = {
  switch_ratio : float;
  scan_cost_cap : float;
  check_every : int;
  memory_budget : int;
  simultaneous : bool;
  dynamic : bool;
  filter_against : float option;
}

let default_config =
  {
    switch_ratio = 0.95;
    scan_cost_cap = 0.25;
    check_every = 32;
    memory_budget = 4096;
    simultaneous = false;
    dynamic = true;
    filter_against = None;
  }

type outcome = Rid_list of Rid.t array | Recommend_tscan of string

type scan_state = {
  cand : Scan.candidate;
  residual : Predicate.compiled_key;  (** [cand]'s residual, on its keys *)
  cursor : Btree.multi_cursor;
  list : Rid_list.t;
  mutable accepted : int;
  mutable scanned : int;
  start_cost : float;
  mutable spill_logged : bool;
}

(* Where a fault surfaced, for [quarantine]: a running scan (primary
   or secondary), or the completed list read in [decide_final]. *)
type fault_site = Site_scan of scan_state * bool | Site_final

and t = {
  table : Table.t;
  meter : Cost.t;
  cfg : config;
  trace : Trace.t;
  mutable fault_site : fault_site option;
  mutable queue : Scan.candidate list;
  mutable primary : scan_state option;
  mutable secondary : scan_state option;
  mutable flip : bool;
  mutable prev_filter : Filter.t option;
  mutable completed : Rid_list.t option;
  mutable completed_count : int;
  mutable completed_name : string;
  tscan_cost : float;
  mutable g : float;
  mutable finished : outcome option;
  borrow_q : Rid.t Dynarray.t;
  mutable borrow_pos : int;
  mutable n_completed : int;
  mutable n_discarded : int;
}

let create table meter cfg trace ~candidates =
  let tscan_cost =
    match cfg.filter_against with
    | Some g -> g
    | None -> Cost_model.tscan_cost table
  in
  {
    table;
    meter;
    cfg;
    trace;
    fault_site = None;
    queue = candidates;
    primary = None;
    secondary = None;
    flip = false;
    prev_filter = None;
    completed = None;
    completed_count = 0;
    completed_name = "";
    tscan_cost;
    g = tscan_cost;
    finished = None;
    borrow_q = Dynarray.create ();
    borrow_pos = 0;
    n_completed = 0;
    n_discarded = 0;
  }

let idx_name st = st.cand.Scan.idx.Table.idx_name

let retrieval_cost t list_count (list : Rid_list.t option) =
  let readback =
    match list with
    | Some l when Rid_list.tier l = Rid_list.Spilled ->
        (* Reading a spilled list back costs its blocks. *)
        float_of_int ((list_count / 1024) + 1) *. Cost.default_weights.Cost.physical_read
    | _ -> 0.0
  in
  Cost_model.rid_fetch_cost t.table ~k:list_count +. readback

let new_scan t cand =
  Trace.emit t.trace (Trace.Scan_started { index = cand.Scan.idx.Table.idx_name });
  {
    cand;
    residual = Scan.compile_key t.table cand.Scan.idx cand.Scan.residual;
    cursor = Btree.multi_cursor cand.Scan.idx.Table.tree t.meter cand.Scan.ranges;
    list = Rid_list.create ~memory_budget:t.cfg.memory_budget (Table.pool t.table) t.meter;
    accepted = 0;
    scanned = 0;
    start_cost = Cost.total t.meter;
    spill_logged = false;
  }

(* Would scanning this candidate cost more than just performing the
   guaranteed best retrieval?  Initial-stage style pre-skip. *)
let worth_scanning t cand =
  Cost_model.index_scan_cost cand.Scan.idx ~entries:cand.Scan.est <= t.g

let ambiguous_order a b =
  (* Estimates within a factor of 4 of each other: §6's case where the
     prearranged order is "optimal only with some probability". *)
  let ea = Float.max 1.0 a.Scan.est and eb = Float.max 1.0 b.Scan.est in
  eb /. ea < 4.0

let finish t outcome =
  (match outcome with
  | Recommend_tscan reason -> Trace.emit t.trace (Trace.Use_tscan { reason })
  | Rid_list _ -> ());
  t.finished <- Some outcome;
  `Finished outcome

let decide_final t =
  match t.completed with
  | None -> finish t (Recommend_tscan "no index produced a competitive RID list")
  | Some list ->
      let fetch = retrieval_cost t t.completed_count (Some list) in
      if Option.is_some t.cfg.filter_against || fetch <= t.tscan_cost then
        finish t (Rid_list (Rid_list.to_sorted_array list))
      else
        finish t
          (Recommend_tscan
             (Printf.sprintf "final list of %d RIDs costs %.1f vs Tscan %.1f"
                t.completed_count fetch t.tscan_cost))

let discard_scan t st reason =
  Trace.emit t.trace (Trace.Scan_discarded { index = idx_name st; reason });
  Rid_list.destroy st.list;
  t.n_discarded <- t.n_discarded + 1

(* The winner's list becomes the new completed intersection; the
   running loser (if any) is refiltered in memory and continues. *)
let complete_scan t st =
  Trace.emit t.trace
    (Trace.Scan_completed { index = idx_name st; kept = st.accepted; scanned = st.scanned });
  (match t.completed with Some old -> Rid_list.destroy old | None -> ());
  let filter = Rid_list.filter st.list in
  t.completed <- Some st.list;
  t.completed_count <- Rid_list.count st.list;
  t.completed_name <- idx_name st;
  t.prev_filter <- Some filter;
  t.g <- Float.min t.g (retrieval_cost t t.completed_count t.completed);
  t.n_completed <- t.n_completed + 1;
  (* Promote / refilter the other running scan. *)
  let other =
    match (t.primary, t.secondary) with
    | Some p, _ when p != st -> Some p
    | _, Some s when s != st -> Some s
    | _ -> None
  in
  t.primary <- None;
  t.secondary <- None;
  (match other with
  | None -> ()
  | Some o -> (
      Trace.emit t.trace (Trace.Simultaneous_winner { index = idx_name st });
      (* Refilter o's in-memory partial list against the new filter. *)
      let fresh = Rid_list.create ~memory_budget:t.cfg.memory_budget (Table.pool t.table) t.meter in
      match
        Rid_list.iter_unordered o.list (fun rid ->
            Cost.charge_cpu t.meter 1;
            if Filter.mem filter rid then Rid_list.add fresh rid)
      with
      | exception Fault.Injected f ->
          (* The loser's partial list (or the refiltered copy) faulted
             mid-refilter.  The winner has already completed, so the
             competition loses nothing by dropping the loser outright —
             the fault is absorbed here and never escapes the quantum. *)
          Rid_list.destroy fresh;
          Trace.emit t.trace
            (Trace.Index_quarantined { index = idx_name o; fault = Fault.describe f });
          discard_scan t o (Fault.describe f)
      | () ->
          Rid_list.destroy o.list;
          let o' =
            { o with list = fresh; accepted = Rid_list.count fresh }
          in
          t.primary <- Some o'));
  if t.completed_count = 0 then begin
    (* Empty intersection: shortcut the whole retrieval (§6). *)
    (match t.primary with
    | Some p ->
        discard_scan t p "intersection already empty";
        t.primary <- None
    | None -> ());
    ignore (finish t (Rid_list [||]))
  end

(* Competition criteria (§6).

   Two-stage: project the final RID-list retrieval cost from the
   current list and scan progress.  A scan is discarded when even the
   *continuation* cannot beat the guaranteed best: the projected list,
   optimistically shrunk by the remaining candidates' selectivities
   (independence assumption), plus the scan work still to be paid,
   approaches g.  With no candidates left this reduces to the paper's
   literal criterion — the projected retrieval cost against g. *)
let check_competition t st =
  let progress =
    float_of_int st.scanned /. Float.max st.cand.Scan.est (float_of_int (st.scanned + 1))
  in
  let projected_count =
    if progress <= 0.0 then float_of_int st.accepted
    else float_of_int st.accepted /. progress
  in
  let card = float_of_int (Int.max 1 (Table.row_count t.table)) in
  let optimism =
    List.fold_left
      (fun acc c -> acc *. Float.min 1.0 (c.Scan.est /. card))
      1.0 t.queue
  in
  let optimistic_count = projected_count *. optimism in
  let future_scan_cost =
    let this_rest =
      Cost_model.index_scan_cost st.cand.Scan.idx
        ~entries:(Float.max 0.0 (st.cand.Scan.est -. float_of_int st.scanned))
    in
    List.fold_left
      (fun acc c -> acc +. Cost_model.index_scan_cost c.Scan.idx ~entries:c.Scan.est)
      this_rest t.queue
  in
  let projected_cost =
    Cost_model.rid_fetch_cost t.table ~k:(int_of_float (ceil optimistic_count))
    +. future_scan_cost
  in
  if projected_cost >= t.cfg.switch_ratio *. t.g then
    Some
      (Printf.sprintf
         "projected retrieval %.1f approaches guaranteed best %.1f (two-stage)"
         projected_cost t.g)
  else begin
    (* Direct competition: the scan's own cost is capped at a
       proportion of the guaranteed best — but only once the scan has
       overrun its estimate (the remaining-cost term above already
       bounds scans that are merely long; abandoning a productive scan
       near completion would be sunk-cost reasoning). *)
    let scan_cost = Cost.total t.meter -. st.start_cost in
    let overrun = float_of_int st.scanned > 2.0 *. Float.max st.cand.Scan.est 64.0 in
    if overrun && scan_cost > t.cfg.scan_cost_cap *. t.g then
      Some
        (Printf.sprintf
           "scan cost %.1f exceeds %.0f%% of guaranteed best %.1f after overrunning its \
            estimate (direct)"
           scan_cost
           (100.0 *. t.cfg.scan_cost_cap)
           t.g)
    else None
  end

let start_scans t =
  (* Pop candidates, pre-skipping those whose whole scan would cost
     more than the guaranteed best retrieval. *)
  let rec pop () =
    match t.queue with
    | [] -> None
    | cand :: rest ->
        t.queue <- rest;
        (* Pre-skip only on *exact* estimates: an inexact estimate is
           precisely what competition exists to distrust — starting the
           scan costs at most one check quantum before the two-stage
           criterion can kill it. *)
        if (not t.cfg.dynamic) || (not cand.Scan.est_exact) || worth_scanning t cand then
          Some cand
        else begin
          Trace.emit t.trace
            (Trace.Scan_discarded
               {
                 index = cand.Scan.idx.Table.idx_name;
                 reason =
                   Printf.sprintf "estimated scan cost exceeds guaranteed best %.1f" t.g;
               });
          t.n_discarded <- t.n_discarded + 1;
          pop ()
        end
  in
  match pop () with
  | None -> false
  | Some cand ->
      t.primary <- Some (new_scan t cand);
      (if t.cfg.simultaneous then begin
         match t.queue with
         | next :: rest when ambiguous_order cand next && worth_scanning t next ->
             t.queue <- rest;
             t.secondary <- Some (new_scan t next);
             Trace.emit t.trace
               (Trace.Simultaneous_started
                  {
                    primary = cand.Scan.idx.Table.idx_name;
                    secondary = next.Scan.idx.Table.idx_name;
                  })
         | _ -> ()
       end);
      true

let advance_scan t st ~is_secondary =
  match Btree.multi_next st.cursor with
  | None ->
      complete_scan t st;
      `Scan_over
  | Some (key, rid) ->
      st.scanned <- st.scanned + 1;
      Cost.charge_cpu t.meter 1;
      let keep =
        Predicate.test_key_maybe st.residual key
        && match t.prev_filter with Some f -> Filter.mem f rid | None -> true
      in
      if keep then begin
        Rid_list.add st.list rid;
        st.accepted <- st.accepted + 1;
        Dynarray.push t.borrow_q rid
      end;
      let abandoned =
        if (not st.spill_logged) && Rid_list.tier st.list = Rid_list.Spilled then begin
          st.spill_logged <- true;
          Trace.emit t.trace (Trace.List_spilled { index = idx_name st; at = st.accepted });
          if is_secondary then begin
            (* Simultaneous scanning must not outgrow the memory buffer:
               drop the secondary, its candidate returns to the queue. *)
            discard_scan t st "simultaneous scan exceeded memory buffer";
            t.secondary <- None;
            t.queue <- st.cand :: t.queue;
            true
          end
          else false
        end
        else false
      in
      if
        (not abandoned)
        && t.cfg.dynamic
        && st.scanned mod t.cfg.check_every = 0
        && t.finished = None
      then begin
        match check_competition t st with
        | None -> ()
        | Some reason ->
            discard_scan t st reason;
            if is_secondary then t.secondary <- None
            else begin
              t.primary <- None;
              (* Promote the secondary, if any. *)
              match t.secondary with
              | Some s ->
                  t.primary <- Some s;
                  t.secondary <- None
              | None -> ()
            end
      end;
      `Scanning

let rec step t =
  match t.finished with
  | Some o -> `Finished o
  | None -> (
      match (t.primary, t.secondary) with
      | None, None -> (
          if start_scans t then `Working
          else
            match decide_final t with
            | exception Fault.Injected f ->
                (* Reading the completed list back faulted.  The list
                   position is untouched, so a retry re-reads it; a
                   quarantine drops it and the decision degrades to
                   Recommend_tscan. *)
                t.fault_site <- Some Site_final;
                `Faulted f
            | r -> r)
      | Some p, None -> (
          match advance_scan t p ~is_secondary:false with
          | exception Fault.Injected f ->
              t.fault_site <- Some (Site_scan (p, false));
              `Faulted f
          | _ -> if t.finished = None then `Working else step t)
      | Some p, Some s -> (
          (* Equal-speed interleave.  [flip] toggles only after a
             successful quantum: a faulted advance is retried on the
             same scan. *)
          let target, is_secondary = if t.flip then (s, true) else (p, false) in
          match advance_scan t target ~is_secondary with
          | exception Fault.Injected f ->
              t.fault_site <- Some (Site_scan (target, is_secondary));
              `Faulted f
          | _ ->
              t.flip <- not t.flip;
              if t.finished = None then `Working else step t)
      | None, Some s ->
          (* Primary was discarded; promote. *)
          t.primary <- Some s;
          t.secondary <- None;
          `Working)

(* Non-retriable fault at the recorded site: drop the faulting party
   and let the competition continue — structurally the same move as a
   §6 competitive discard, with a fault for a reason. *)
let quarantine t f =
  match t.fault_site with
  | None -> ()
  | Some site -> (
      t.fault_site <- None;
      match site with
      | Site_final ->
          (match t.completed with Some l -> Rid_list.destroy l | None -> ());
          t.completed <- None;
          t.completed_count <- 0;
          t.completed_name <- "";
          (* [g] may have been lowered by the now-unreadable list;
             restore the only guarantee still standing. *)
          t.g <- t.tscan_cost
      | Site_scan (st, is_secondary) ->
          Trace.emit t.trace
            (Trace.Index_quarantined { index = idx_name st; fault = Fault.describe f });
          discard_scan t st (Fault.describe f);
          if is_secondary then t.secondary <- None
          else begin
            t.primary <- None;
            match t.secondary with
            | Some s ->
                t.primary <- Some s;
                t.secondary <- None
            | None -> ()
          end)

let outcome t = t.finished

(* Jscan produces a RID list (or a recommendation) through [outcome],
   not rows; faults surface as [Failed] steps so the shared driver's
   policy decides between retry and quarantine. *)
let run t =
  let policy =
    Tactic.Policy.(
      seal (stack [ retry_transient; absorb_with ~name:"quarantine" (quarantine t) ]))
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
  | Error _ -> (* the quarantine rung absorbs, never stops *) assert false);
  match t.finished with Some o -> o | None -> assert false

let borrow t =
  if t.borrow_pos < Dynarray.length t.borrow_q then begin
    let rid = Dynarray.get t.borrow_q t.borrow_pos in
    t.borrow_pos <- t.borrow_pos + 1;
    Some rid
  end
  else None

let guaranteed_best t = t.g
let completed_scans t = t.n_completed
let discarded_scans t = t.n_discarded
