open Rdb_data
open Rdb_engine
open Rdb_exec
open Rdb_storage

type submission = {
  sub_label : string option;
  sub_config : Retrieval.config option;
  sub_limit : int option;
  sub_quota : float option;
  sub_deadline : float option;
  sub_arrive_at : int;
  sub_table : Table.t;
  sub_request : Retrieval.request;
}

let query ?label ?config ?limit ?quota ?deadline ?(arrive_at = 0) table request =
  {
    sub_label = label;
    sub_config = config;
    sub_limit = limit;
    sub_quota = quota;
    sub_deadline = deadline;
    sub_arrive_at = arrive_at;
    sub_table = table;
    sub_request = request;
  }

type actions = {
  act_orphans : (string * string * int) list;
  act_requarantined : (string * string * int) list;
  act_rebuilds : (string * string) list;
}

let crash_teardown db =
  let pool = Database.pool db in
  Buffer_pool.flush pool;
  (match Buffer_pool.metrics pool with
  | None -> ()
  | Some m -> Rdb_util.Metrics.reset m);
  List.iter Table.reset_volatile (Database.tables db)

let recover ?trace db =
  let emit e = match trace with None -> () | Some t -> Trace.emit t e in
  let pool = Database.pool db in
  let manifest = Buffer_pool.manifest pool in
  (* 1. Orphan side trees: rebuilds that died [Building] never swapped
     anything in — drop their blocks and flip the record to [Aborted]
     so a second recovery pass finds nothing. *)
  let orphans =
    List.map
      (fun rb ->
        Buffer_pool.evict_file pool rb.Manifest.rb_side_file;
        Manifest.abort_rebuild manifest rb.Manifest.rb_id;
        emit
          (Trace.Orphan_discarded
             { index = rb.Manifest.rb_index; side_file = rb.Manifest.rb_side_file });
        (rb.Manifest.rb_table, rb.Manifest.rb_index, rb.Manifest.rb_side_file))
      (Manifest.orphans manifest)
  in
  (* 2. Restore the health registry from the persisted verdicts: the
     restart must not silently trust a structure the previous
     incarnation proved dead.  Backoff budgets are re-derived from the
     escalation counts. *)
  let restore table ~escalations structure =
    Health.restore_quarantined (Table.health table) ~now:(Table.now table)
      ~escalations structure;
    emit (Trace.Quarantine_restored { structure; escalations })
  in
  let verdicts = Manifest.quarantines manifest in
  let from_verdicts =
    List.filter_map
      (fun (tbl, structure, escalations) ->
        match Database.find_table db tbl with
        | None -> None
        | Some table ->
            restore table ~escalations structure;
            Some (tbl, structure, escalations))
      verdicts
  in
  (* An orphaned index with no prior verdict (the rebuild was elective)
     is conservatively re-quarantined: its committed tree may be stale
     relative to whatever prompted the rebuild, and the resubmitted
     rebuild is its recovery path. *)
  let from_orphans =
    List.filter_map
      (fun (tbl, idx, _) ->
        if List.exists (fun (t2, s2, _) -> t2 = tbl && s2 = idx) verdicts then None
        else
          match Database.find_table db tbl with
          | None -> None
          | Some table ->
              restore table ~escalations:0 idx;
              Some (tbl, idx, 0))
      orphans
  in
  let requarantined = List.sort compare (from_verdicts @ from_orphans) in
  (* 3. Every restored-quarantined structure that is an index gets its
     rebuild resubmitted — recovery restores service, it does not just
     restore suspicion.  The heap cannot be rebuilt from itself; its
     exits stay the re-probe and the REPAIR TABLE page rewrite. *)
  let rebuilds =
    List.sort_uniq compare
      (List.filter_map
         (fun (tbl, structure, _) ->
           match Database.find_table db tbl with
           | None -> None
           | Some table -> (
               match Table.find_index table structure with
               | Some _ -> Some (tbl, structure)
               | None -> None))
         requarantined)
  in
  List.iter (fun (_, idx) -> emit (Trace.Rebuild_resubmitted { index = idx })) rebuilds;
  { act_orphans = orphans; act_requarantined = requarantined; act_rebuilds = rebuilds }

(* --- the epoch supervisor --------------------------------------------- *)

type epoch_report = {
  ep_index : int;
  ep_report : Session.report;
  ep_actions : actions option;
}

type final = {
  f_label : string;
  f_outcome : Session.outcome option;
  f_rows : Row.t list;
  f_lost_count : int;
}

type report = {
  r_epochs : epoch_report list;
  r_submitted : int;
  r_served : int;
  r_shed : int;
  r_timed_out : int;
  r_unresolved : int;
  r_crashes : int;
  r_reissues : int;
  r_finals : final list;
  r_trace : Trace.event list;
}

type entry = {
  e_sub : submission;
  e_label : string;
  mutable e_lost : int;
  mutable e_final : Session.outcome option;
  mutable e_rows : Row.t list;
}

let run ?(config = Session.default_config) ?(crashes = []) ?(repairs = []) db subs =
  let entries =
    List.mapi
      (fun i s ->
        let label =
          match s.sub_label with Some l -> l | None -> Printf.sprintf "q%d" i
        in
        { e_sub = s; e_label = label; e_lost = 0; e_final = None; e_rows = [] })
      subs
  in
  let crashes = Array.of_list crashes in
  let trace = Trace.create () in
  let pending_repairs =
    ref (List.map (fun (tbl, idx) -> ("repair:" ^ idx, tbl, idx)) repairs)
  in
  let epochs = ref [] in
  let epoch = ref 0 in
  let continue_ = ref true in
  while !continue_ do
    let points =
      if !epoch < Array.length crashes then crashes.(!epoch) else []
    in
    let sched =
      Session.create ~config:{ config with Session.crash_points = points } db
    in
    (* Re-admit every unresolved journal entry, in submission order.
       Terminal outcomes stand — a crash never un-serves a query. *)
    let submitted =
      List.filter_map
        (fun e ->
          if e.e_final <> None then None
          else begin
            if !epoch > 0 then
              Trace.emit trace (Trace.Reissued { label = e.e_label; epoch = !epoch });
            let arrive_at = if !epoch = 0 then e.e_sub.sub_arrive_at else 0 in
            let id =
              Session.submit sched ~label:e.e_label ?config:e.e_sub.sub_config
                ?limit:e.e_sub.sub_limit ?quota:e.e_sub.sub_quota
                ?deadline:e.e_sub.sub_deadline ~arrive_at e.e_sub.sub_table
                e.e_sub.sub_request
            in
            Some (e, id)
          end)
        entries
    in
    List.iter
      (fun (label, tbl, idx) ->
        ignore (Session.submit_repair sched ~label tbl ~index:idx))
      !pending_repairs;
    let rep = Session.run sched in
    (* The report lists query sessions in submission order, and every
       query was submitted before the repairs: it pairs one-to-one with
       this epoch's submissions. *)
    List.iter2
      (fun (e, id) s ->
        match s.Session.s_outcome with
        | Session.Lost _ -> e.e_lost <- e.e_lost + 1
        | o ->
            e.e_final <- Some o;
            e.e_rows <- Session.rows_of sched id)
      submitted rep.Session.sessions;
    let crash_tick = rep.Session.pool.Session.p_crash_tick in
    let actions =
      match crash_tick with
      | None ->
          (* Clean epoch: whatever repairs ran are done (their result is
             in the report and the manifest); nothing pends. *)
          pending_repairs := [];
          None
      | Some tick ->
          Trace.emit trace
            (Trace.Crash
               { epoch = !epoch; tick; lost = rep.Session.pool.Session.p_lost });
          crash_teardown db;
          let acts = recover ~trace db in
          ignore (Manifest.begin_epoch (Buffer_pool.manifest (Database.pool db)));
          pending_repairs :=
            List.filter_map
              (fun (tbl, idx) ->
                match Database.find_table db tbl with
                | None -> None
                | Some table -> Some ("recover:" ^ idx, table, idx))
              acts.act_rebuilds;
          Some acts
    in
    epochs := { ep_index = !epoch; ep_report = rep; ep_actions = actions } :: !epochs;
    let unresolved = List.exists (fun e -> e.e_final = None) entries in
    (* A crash-free epoch resolves everything it admitted; the schedule
       is finite, so the loop always reaches one. *)
    continue_ := crash_tick <> None && (unresolved || !pending_repairs <> []);
    incr epoch
  done;
  let finals =
    List.map
      (fun e ->
        {
          f_label = e.e_label;
          f_outcome = e.e_final;
          f_rows = e.e_rows;
          f_lost_count = e.e_lost;
        })
      entries
  in
  let count pred = List.length (List.filter pred finals) in
  let epochs = List.rev !epochs in
  {
    r_epochs = epochs;
    r_submitted = List.length finals;
    r_served = count (fun f -> f.f_outcome = Some Session.Served);
    r_shed =
      count (fun f -> match f.f_outcome with Some (Session.Shed _) -> true | _ -> false);
    r_timed_out =
      count (fun f ->
          match f.f_outcome with Some (Session.Timed_out _) -> true | _ -> false);
    r_unresolved = count (fun f -> f.f_outcome = None);
    r_crashes =
      List.length (List.filter (fun ep -> ep.ep_actions <> None) epochs);
    r_reissues = List.fold_left (fun acc f -> acc + f.f_lost_count) 0 finals;
    r_finals = finals;
    r_trace = Trace.events trace;
  }

let seeded_crashes ~seed ~epochs ~max_tick =
  if epochs < 0 then invalid_arg "Recovery.seeded_crashes: epochs < 0";
  if max_tick < 1 then invalid_arg "Recovery.seeded_crashes: max_tick < 1";
  let rng = Rdb_util.Prng.create ~seed in
  List.init epochs (fun _ ->
      [ Session.Crash_at_grant (Rdb_util.Prng.int_in rng 1 max_tick) ])

let report_to_string r =
  let buf = Buffer.create 1024 in
  List.iter
    (fun ep ->
      Buffer.add_string buf (Printf.sprintf "== epoch %d ==\n" ep.ep_index);
      Buffer.add_string buf (Session.report_to_string ep.ep_report);
      match ep.ep_actions with
      | None -> ()
      | Some a ->
          Buffer.add_string buf
            (Printf.sprintf
               "recovery: %d orphan side trees discarded, %d quarantines restored, \
                %d rebuilds resubmitted\n"
               (List.length a.act_orphans)
               (List.length a.act_requarantined)
               (List.length a.act_rebuilds)))
    r.r_epochs;
  Buffer.add_string buf "journal:\n";
  List.iter
    (fun f ->
      Buffer.add_string buf
        (Printf.sprintf "  %-28s %s%s\n" f.f_label
           (match f.f_outcome with
           | Some o -> Session.outcome_to_string o
           | None -> "unresolved")
           (if f.f_lost_count > 0 then
              Printf.sprintf " (lost %d time%s, reissued)" f.f_lost_count
                (if f.f_lost_count = 1 then "" else "s")
            else "")))
    r.r_finals;
  Buffer.add_string buf
    (Printf.sprintf
       "recovery ledger: %d served + %d shed + %d timed out + %d unresolved = %d \
        submitted (%d crashes, %d reissues)\n"
       r.r_served r.r_shed r.r_timed_out r.r_unresolved r.r_submitted r.r_crashes
       r.r_reissues);
  Buffer.contents buf
