open Rdb_btree
open Rdb_engine
open Rdb_exec
open Rdb_storage

type classified = {
  jscan_candidates : Scan.candidate list;
  self_sufficient : Scan.candidate list;
  order_index : Scan.candidate option;
  union_candidates : Scan.candidate list;
}

type decision = No_rows of string | Arranged of classified

let shortcut_threshold = 16

(* Forward a health transition to the pool metrics and the trace. *)
let note_health table trace tr =
  match Table.note_transition table tr with
  | None -> ()
  | Some tr ->
      Trace.emit trace
        (Trace.Health_transition
           {
             structure = tr.Health.tr_structure;
             from_ = Health.state_to_string tr.Health.tr_from;
             to_ = Health.state_to_string tr.Health.tr_to;
             reason = tr.Health.tr_reason;
           })

(* Catalog indexes the health registry allows plans to touch:
   quarantined-in-backoff and rebuilding indexes are invisible to the
   optimizer (a quarantined index past its backoff is offered — that
   planning attempt is the re-probe). *)
let usable_indexes table =
  List.filter (Table.index_usable table) (Table.indexes table)

(* Indexes in the adaptively-remembered order, unremembered ones
   last in catalog order. *)
let indexes_in_preferred_order table =
  let preferred = Table.preferred_order table in
  let all = usable_indexes table in
  let remembered =
    List.filter_map (fun n -> List.find_opt (fun i -> i.Table.idx_name = n) all) preferred
  in
  let rest = List.filter (fun i -> not (List.mem i.Table.idx_name preferred)) all in
  remembered @ rest

(* Scale an inexact descent estimate by the table's learned feedback
   factor (DESIGN.md §13), announcing the correction on the trace.
   Exact estimates pass through untouched: exactness is what
   correctness-critical decisions gate on (empty-range cancel,
   pre-skip, union disjunct drop), so correction is cost-only by
   construction. *)
let apply_feedback table trace ~feedback_rate ~index ~ranges ~est ~exact =
  if feedback_rate <= 0.0 || exact then est
  else
    let fb = Table.feedback table in
    if not (Feedback.known fb ~name:index ~key:ranges) then est
    else begin
      let corrected = Feedback.correct fb ~name:index ~key:ranges est in
      Trace.emit trace (Trace.Feedback_applied { index; raw = est; corrected });
      corrected
    end

(* One bounded candidate per OR disjunct, when every disjunct has a
   usable index (the §7 "covering ORs" extension).  A disjunct whose
   best estimate is exactly zero contributes no rows and is dropped. *)
let union_candidates table meter trace ~feedback_rate ~restriction =
  match Predicate.simplify restriction with
  | Predicate.Or branches when List.length branches <= 8 ->
      let branch_candidate branch =
        let best = ref None in
        List.iter
          (fun idx ->
            let extraction = Range_extract.for_index branch idx in
            if extraction.Range_extract.bounded then begin
              match Estimate.ranges idx.Table.tree meter extraction.Range_extract.ranges with
              | exception Fault.Injected f ->
                  (* Skip the faulting index for this disjunct; if no
                     other index covers it the union tactic is simply
                     not offered. *)
                  Trace.emit trace
                    (Trace.Fault_detected
                       { site = "estimation"; fault = Fault.describe f })
              | r ->
              let est =
                apply_feedback table trace ~feedback_rate
                  ~index:idx.Table.idx_name ~ranges:extraction.Range_extract.ranges
                  ~est:r.Estimate.estimate ~exact:r.Estimate.exact
              in
              Trace.emit trace
                (Trace.Estimated
                   {
                     index = idx.Table.idx_name;
                     estimate = est;
                     exact = r.Estimate.exact;
                     nodes = r.Estimate.nodes_visited;
                   });
              let cand =
                {
                  Scan.idx;
                  ranges = extraction.Range_extract.ranges;
                  residual = extraction.Range_extract.residual;
                  est;
                  est_exact = r.Estimate.exact;
                }
              in
              match !best with
              | Some b when b.Scan.est <= cand.Scan.est -> ()
              | _ -> best := Some cand
            end)
          (usable_indexes table);
        !best
      in
      let rec all_covered acc = function
        | [] -> Some (List.rev acc)
        | branch :: rest -> (
            match branch_candidate branch with
            | None -> None
            | Some c when c.Scan.est_exact && c.Scan.est = 0.0 ->
                (* empty disjunct: contributes nothing *)
                all_covered acc rest
            | Some c -> all_covered (c :: acc) rest)
      in
      (match all_covered [] branches with
      | Some cands ->
          (* cheap certain scans first: abandonment decisions then rest
             on maximum evidence per unit of scan investment *)
          List.stable_sort (fun a b -> Float.compare a.Scan.est b.Scan.est) cands
      | None -> [])
  | _ -> []

let run table meter trace ~feedback_rate ~restriction ~needed_columns ~order_by =
  let indexes = indexes_in_preferred_order table in
  let stop_estimating = ref false in
  let empty_found = ref None in
  let candidates =
    List.filter_map
      (fun idx ->
        let extraction = Range_extract.for_index restriction idx in
        if not extraction.Range_extract.bounded then None
        else begin
          let name = idx.Table.idx_name in
          let health = Table.health table in
          let probing = Health.probe_due health ~now:(Table.now table) name in
          let pessimistic = (float_of_int (Btree.cardinality idx.Table.tree), false) in
          let est_opt =
            if !stop_estimating && not probing then
              (* Pessimistic default: unknown, assume the whole index. *)
              Some pessimistic
            else begin
              match Estimate.ranges idx.Table.tree meter extraction.Range_extract.ranges with
              | exception Fault.Injected f ->
                  Trace.emit trace
                    (Trace.Fault_detected
                       { site = "estimation"; fault = Fault.describe f });
                  if probing then begin
                    (* The re-probe of a quarantined index failed:
                       escalate its backoff and keep it out of the
                       plan. *)
                    note_health table trace
                      (Health.record_dead health ~now:(Table.now table) name);
                    None
                  end
                  else begin
                    match f.Fault.kind with
                    | Fault.Persistent ->
                        (* The file is dead; a scan over it cannot
                           succeed either.  Quarantine now. *)
                        note_health table trace
                          (Health.record_dead health ~now:(Table.now table) name);
                        None
                    | Fault.Corrupt ->
                        note_health table trace
                          (Health.record_corrupt health ~now:(Table.now table) name);
                        if Health.usable health ~now:(Table.now table) name then
                          (* Estimation is advice: a suspect descent
                             costs us accuracy, never the index. *)
                          Some pessimistic
                        else None
                    | Fault.Transient | Fault.Spill_full ->
                        (* Estimation is advice: a faulting descent
                           costs us accuracy, never the index.  Fall
                           back to the pessimistic whole-index
                           default. *)
                        Some pessimistic
                  end
              | r ->
                  if probing then
                    (* The descent succeeded: the quarantined index is
                       readable again. *)
                    note_health table trace (Health.mark_healthy health name);
                  let est =
                    apply_feedback table trace ~feedback_rate ~index:name
                      ~ranges:extraction.Range_extract.ranges
                      ~est:r.Estimate.estimate ~exact:r.Estimate.exact
                  in
                  Trace.emit trace
                    (Trace.Estimated
                       {
                         index = name;
                         estimate = est;
                         exact = r.Estimate.exact;
                         nodes = r.Estimate.nodes_visited;
                       });
                  if r.Estimate.exact && est = 0.0 then
                    empty_found := Some name
                  else if est <= float_of_int shortcut_threshold then begin
                    stop_estimating := true;
                    Trace.emit trace
                      (Trace.Shortcut_estimation { index = name; estimate = est })
                  end;
                  Some (est, r.Estimate.exact)
            end
          in
          match est_opt with
          | None -> None
          | Some (est, exact) ->
              Some
                {
                  Scan.idx;
                  ranges = extraction.Range_extract.ranges;
                  residual = extraction.Range_extract.residual;
                  est;
                  est_exact = exact;
                }
        end)
      indexes
  in
  match !empty_found with
  | Some index ->
      Trace.emit trace (Trace.Empty_range { index });
      No_rows ("empty range on index " ^ index)
  | None ->
      let by_est =
        List.stable_sort (fun a b -> Float.compare a.Scan.est b.Scan.est) candidates
      in
      (* Remember this order for the next retrieval's estimation. *)
      Table.set_preferred_order table
        (List.map (fun c -> c.Scan.idx.Table.idx_name) by_est);
      let covering_columns = needed_columns in
      let bounded_covering =
        List.filter
          (fun c -> Table.index_covers c.Scan.idx ~columns:covering_columns)
          by_est
      in
      (* A covering index is a useful Sscan even without a bounded
         range: a full index scan can beat the table scan. *)
      let unbounded_covering =
        List.filter_map
          (fun idx ->
            let already =
              List.exists (fun c -> c.Scan.idx.Table.idx_name = idx.Table.idx_name) by_est
            in
            if already || not (Table.index_covers idx ~columns:covering_columns) then None
            else
              Some
                {
                  Scan.idx;
                  ranges = [ Btree.full_range ];
                  residual = Predicate.simplify restriction;
                  est = float_of_int (Btree.cardinality idx.Table.tree);
                  est_exact = true;
                })
          (usable_indexes table)
      in
      let self_sufficient = bounded_covering @ unbounded_covering in
      let order_index =
        if order_by = [] then None
        else begin
          (* Among order-providing indexes prefer the narrowest range. *)
          let providers =
            List.filter
              (fun c -> Table.index_provides_order c.Scan.idx ~order:order_by)
              by_est
          in
          match providers with
          | c :: _ -> Some c
          | [] ->
              (* An unbounded order index is still useful for order. *)
              List.find_opt
                (fun i -> Table.index_provides_order i ~order:order_by)
                (usable_indexes table)
              |> Option.map (fun idx ->
                     {
                       Scan.idx;
                       ranges = [ Btree.full_range ];
                       residual = Predicate.simplify restriction;
                       est = float_of_int (Btree.cardinality idx.Table.tree);
                       est_exact = false;
                     })
        end
      in
      let union_candidates =
        if by_est = [] && self_sufficient = [] then
          union_candidates table meter trace ~feedback_rate ~restriction
        else []
      in
      Arranged
        { jscan_candidates = by_est; self_sufficient; order_index; union_candidates }
