open Rdb_data
open Rdb_engine
open Rdb_exec
open Rdb_rid
open Rdb_storage

type config = {
  jscan : Jscan.config;
  speed_ratio : float;
  bgr_enabled : bool;
      (** [false] drops the competitive background-refinement arms
          (index-only falls back to its foreground Sscan, sorted to its
          foreground Fscan) — the scheduler's graceful-degradation
          rung.  Tactics whose background is the sole row source are
          unaffected.  Rows and order are invariant *)
  deadline : float option;
      (** total charged-cost bound, checked before every quantum *)
  feedback_rate : float;
      (** learning rate for the table's cardinality-feedback store
          (DESIGN.md §13).  0. (the default) disables the loop
          entirely — no corrections, no observations, no events:
          byte-identical to a build without it.  Positive rates scale
          inexact descent estimates by learned factors and fold each
          completed scan's actual back in at [close].  Cost-only:
          rows and order are invariant under any rate *)
  metrics : Rdb_util.Metrics.t option;
      (** observation-only registry; per-retrieval aggregates are
          recorded at [close] *)
}

let default_config =
  {
    jscan = Jscan.default_config;
    speed_ratio = 1.0;
    bgr_enabled = true;
    deadline = None;
    feedback_rate = 0.0;
    metrics = None;
  }

(* Foreground delivered-RID buffer capacity: overflow stops the
   foreground (fast-first) or the background (index-only). *)
let fgr_buffer_cap = 512

(* The fast-first foreground stops once its wasted-fetch cost exceeds
   this fraction of the guaranteed best. *)
let fgr_waste_cap = 0.5

(* Consecutive faulted quanta tolerated before a transient fault is
   escalated to the non-retriable policy. *)
let retry_limit = 8

type request = {
  restriction : Predicate.t;
  env : Predicate.env;
  explicit_goal : Goal.t option;
  context : Goal.controlling_node option;
  order_by : string list;
  projection : string list option;
}

let request ?(env = []) ?explicit_goal ?context ?(order_by = []) ?projection restriction =
  { restriction; env; explicit_goal; context; order_by; projection }

type tactic_kind =
  | Static_tscan
  | Static_sscan
  | Static_fscan
  | Background_only
  | Fast_first_tactic
  | Sorted_tactic
  | Index_only_tactic
  | Union_tactic
  | Cancelled

let tactic_to_string = function
  | Static_tscan -> "static Tscan"
  | Static_sscan -> "static Sscan"
  | Static_fscan -> "static Fscan"
  | Background_only -> "background-only (Jscan)"
  | Fast_first_tactic -> "fast-first (Fgr borrows from Jscan)"
  | Sorted_tactic -> "sorted (Fscan + Jscan filter)"
  | Index_only_tactic -> "index-only (Sscan vs Jscan)"
  | Union_tactic -> "union (one scan per OR disjunct)"
  | Cancelled -> "cancelled (empty range)"

(* How the retrieval ended.  The stream API ([fetch] returning [None])
   does not distinguish these; the summary does, and the SQL executor
   turns anything but [Completed] into a reported error. *)
type status =
  | Completed
  | Timed_out of { spent : float; deadline : float }
      (** charged cost reached [config.deadline]; delivered rows stand *)
  | Aborted of { fault : string }
      (** the heap itself was unreadable; no degradation path exists *)

let status_to_string = function
  | Completed -> "completed"
  | Timed_out { spent; deadline } ->
      Printf.sprintf "timed out: cost deadline exceeded (%.1f of %.1f)" spent deadline
  | Aborted { fault } -> Printf.sprintf "aborted: %s" fault

type summary = {
  rows_delivered : int;
  total_cost : float;
  cost_to_first_row : float option;
  tactic : tactic_kind;
  goal : Goal.t;
  goal_provenance : string;
  policy : string;  (** the composed fault-policy ladder (DESIGN.md §17) *)
  status : status;
  trace : Trace.event list;
}

(* ------------------------------------------------------------------ *)
(* Stage-2 machinery shared by background-bearing tactics              *)
(* ------------------------------------------------------------------ *)

type fast_first = {
  ff_jscan : Jscan.t;
  mutable ff_active : bool;  (** foreground still running *)
  mutable ff_wasted : int;  (** fetches rejected by the restriction *)
}

type sorted_t = {
  so_fscan : Fscan.t;
  so_jscan : Jscan.t;
  mutable so_bgr_active : bool;
}

type index_only = {
  io_sscan : Sscan.t;
  io_cand : Scan.candidate;
  io_jscan : Jscan.t;
  mutable io_bgr_active : bool;
  mutable io_stage2 : Tactic.t option;
      (** the final stage over Jscan's sure list, once it wins: the
          probe of the [preempt] that replaces the Sscan *)
}

type cursor = {
  table : Table.t;
  cfg : config;
  trace : Trace.t;
  tactic : tactic_kind;
  goal : Goal.t;
  goal_provenance : string;
  restriction : Predicate.t;  (** bound *)
  compiled : Predicate.compiled;
      (** [restriction], compiled once at open for the per-row tests
          the cursor makes itself (the fast-first borrow) *)
  mutable tac : Tactic.t;
      (** the plan's composed tactic under the cursor's one [distinct]
          (DESIGN.md §17); the Tscan fallback replaces it, and a
          settled [then_] phase narrows it to its stage-2 step *)
  fgr_meter : Cost.t;
  bgr_meter : Cost.t;
  est_meter : Cost.t;
  order_ids : int array;  (** requested order, as column positions *)
  mutable sorted_rows : (Rid.t * Row.t) list option;  (** materialized post-sort *)
  mutable presort : (Rid.t * Row.t) list;
      (** rows accumulated (reversed) while draining ahead of the sort *)
  mutable needs_sort : bool;
  ordered_by_index : bool;
      (** delivery order came from an index: a fault fallback must
          re-sort the remainder to keep the stream ordered *)
  feedback_pending : Scan.candidate list;
      (** inexact planned candidates awaiting an actual: paired with
          [Scan_completed] events at [close] and folded into the
          table's feedback store (empty unless [feedback_rate > 0.]) *)
  delivered_rids : Rid_set.t;
      (** every RID delivered so far, recorded by the [Tactic.distinct]
          wrapping [tac]: the Tscan fallback and the final stage skip
          them, and the foreground buffer caps count them *)
  mutable driver : Driver.t option;
      (** the shared driver settling step outcomes through the fault
          policy; installed at the first settled step (the policy
          closes over this record).  Consecutive-fault counting lives
          in the driver *)
  mutable last_failed : bool;
      (** the last step was [Failed]: the next one settles through the
          driver, whose fault count only a failure leaves positive *)
  mutable pending_bg : (Fault.failure -> unit) option;
      (** quarantine action for a fault surfaced by a background
          competitor this quantum; [None] means the fault is the
          foreground's *)
  mutable aborted : string option;
  mutable deadline_hit : (float * float) option;
      (** (spent, deadline): the cost bound stopped this cursor *)
  mutable delivered : int;
  mutable first_row_cost : float option;
  mutable closed : bool;
  mutable summary : summary option;
}

let total_cost c = Cost.total3 c.fgr_meter c.bgr_meter c.est_meter

(* ------------------------------------------------------------------ *)
(* Stepping                                                            *)
(* ------------------------------------------------------------------ *)

let tscan_step table meter restriction : Tactic.t =
  let t = Tscan.create table meter restriction in
  fun () -> Tscan.step t

(* The stage a settled background outcome leads to, as a step tactic.
   The final stage skips delivered RIDs before fetching them — the
   skip saves a charged fetch; a Tscan stage's repeats are dropped by
   the cursor's [distinct] instead.  The final stage's page-handle
   cache is only sound within one step, so its step drops it. *)
let stage2_step c outcome : Tactic.t =
  match outcome with
  | Jscan.Rid_list rids ->
      Trace.emit c.trace
        (Trace.Final_stage
           {
             rids = Array.length rids;
             filtered_delivered = Rid_set.cardinal c.delivered_rids;
           });
      let fs =
        Final_stage.create c.table c.bgr_meter ~rids ~restriction:c.restriction
          ~exclude:(Rid_set.mem c.delivered_rids)
      in
      fun () ->
        let s = Final_stage.step fs in
        Final_stage.drop_cache fs;
        s
  | Jscan.Recommend_tscan _ -> tscan_step c.table c.bgr_meter c.restriction

let fgr_cost c = Cost.total c.fgr_meter
let bgr_cost c = Cost.total c.bgr_meter

let prefer_fgr c = fgr_cost c <= bgr_cost c *. c.cfg.speed_ratio

(* A background competitor faulted this quantum: park its quarantine
   action for the fault policy (which decides retry vs quarantine) and
   surface the failure.  One helper for every background arm —
   bg-only, fast-first, sorted, index-only, and the union scan. *)
let bg_failed c quarantine f =
  c.pending_bg <- Some quarantine;
  Scan.Failed f

(* Successor thunk for [Tactic.then_]: build the final stage from the
   settled background outcome (the [Final_stage] trace event fires
   here, in the switch quantum).  The settled phase then leaves the
   tactic: from the next quantum on the cursor steps [distinct] over
   the stage itself, as [then_] would have, without passing through
   it. *)
let stage2_successor c outcome =
  let step2 = stage2_step c outcome in
  c.tac <- Tactic.distinct c.delivered_rids step2;
  step2

(* One quantum of the fast-first foreground phase.  The background
   Jscan is always advanced first (it is also the RID source); the
   foreground additionally borrows a RID when its spent cost lags the
   background's.  The bg-step + borrow pairing stays one arm on
   purpose: §7's fast-first couples the two inside a single quantum,
   which a per-quantum [Tactic.race] cannot express — the one
   deliberate exception noted in DESIGN.md §17. *)
let fast_first_phase1 c ff =
  match Jscan.step ff.ff_jscan with
  | `Faulted f -> bg_failed c (Jscan.quarantine ff.ff_jscan) f
  | `Finished _ ->
      if ff.ff_active then
        Trace.emit c.trace (Trace.Foreground_stopped { reason = "background completed" });
      ff.ff_active <- false;
      Scan.Done
  | `Working ->
      if ff.ff_active && prefer_fgr c then begin
        match Jscan.borrow ff.ff_jscan with
        | None -> Scan.Continue
        | Some rid ->
            if Rid_set.mem c.delivered_rids rid then Scan.Continue
            else begin
              (* A faulted borrowed fetch is reported as a
                 *foreground* heap fault; the borrowed RID is not
                 replayed, which is safe — any true result row it
                 names is still owed by the final stage (or the
                 Tscan fallback), which excludes only delivered
                 rows. *)
              match Heap_file.fetch (Table.heap c.table) c.fgr_meter rid with
              | exception Fault.Injected f -> Scan.Failed f
              | None -> Scan.Continue
              | Some row ->
                  if Predicate.test c.compiled row then begin
                    (* [distinct] records [rid] as it passes; it
                       already counts toward the cap *)
                    if Rid_set.cardinal c.delivered_rids + 1 >= fgr_buffer_cap then begin
                      ff.ff_active <- false;
                      Trace.emit c.trace
                        (Trace.Foreground_stopped { reason = "foreground buffer overflow" })
                    end;
                    Scan.Deliver (rid, row)
                  end
                  else begin
                    ff.ff_wasted <- ff.ff_wasted + 1;
                    let wasted_cost =
                      float_of_int ff.ff_wasted *. Cost.default_weights.Cost.physical_read
                    in
                    if wasted_cost > fgr_waste_cap *. Jscan.guaranteed_best ff.ff_jscan
                    then begin
                      ff.ff_active <- false;
                      Trace.emit c.trace
                        (Trace.Foreground_stopped
                           { reason = "wasted fetches exceed competition cap" })
                    end;
                    Scan.Continue
                  end
            end
      end
      else Scan.Continue

(* Sorted tactic arms: the foreground Fscan is the only deliverer; the
   background Jscan builds a filter while its cost lags. *)
let sorted_bg c so =
  match Jscan.step so.so_jscan with
  | `Faulted f -> bg_failed c (Jscan.quarantine so.so_jscan) f
  | `Working -> Scan.Continue
  | `Finished (Jscan.Rid_list rids) ->
      so.so_bgr_active <- false;
      Fscan.set_filter so.so_fscan (Filter.of_sorted_array rids);
      Scan.Continue
  | `Finished (Jscan.Recommend_tscan _) ->
      so.so_bgr_active <- false;
      Scan.Continue

let sorted_fg c so =
  let s = Fscan.step so.so_fscan in
  Fscan.drop_cache so.so_fscan;
  match s with
  | Scan.Done ->
      if so.so_bgr_active then begin
        so.so_bgr_active <- false;
        Trace.emit c.trace (Trace.Background_stopped { reason = "foreground finished first" })
      end;
      Scan.Done
  | s -> s

(* Index-only arms: the self-sufficient Sscan delivers; the Jscan
   competes for a sure list that preempts it. *)
let index_only_bg c io =
  match Jscan.step io.io_jscan with
  | `Faulted f -> bg_failed c (Jscan.quarantine io.io_jscan) f
  | `Working -> Scan.Continue
  | `Finished (Jscan.Recommend_tscan _) ->
      io.io_bgr_active <- false;
      Trace.emit c.trace
        (Trace.Background_stopped { reason = "Jscan found no competitive list" });
      Scan.Continue
  | `Finished (Jscan.Rid_list rids) ->
      io.io_bgr_active <- false;
      (* Is the "sure" RID-list retrieval cheaper than finishing
         the Sscan? *)
      let remaining =
        Float.max 0.0 (io.io_cand.Scan.est -. float_of_int (Sscan.delivered io.io_sscan))
      in
      let sscan_rest = Cost_model.index_scan_cost io.io_cand.Scan.idx ~entries:remaining in
      let list_cost = Cost_model.rid_fetch_cost c.table ~k:(Array.length rids) in
      if list_cost < sscan_rest then begin
        Trace.emit c.trace
          (Trace.Foreground_stopped
             { reason = "Jscan delivered a small sure list; Sscan abandoned" });
        io.io_stage2 <- Some (stage2_step c (Jscan.Rid_list rids))
      end;
      Scan.Continue

let index_only_fg c io =
  match Sscan.step io.io_sscan with
  | Scan.Deliver _ as s ->
      (* [distinct] records this row as it passes; it already counts
         toward the cap *)
      if Rid_set.cardinal c.delivered_rids + 1 >= fgr_buffer_cap && io.io_bgr_active
      then begin
        (* Foreground buffer overflow: the safer Sscan wins,
           Jscan terminates (§7 index-only). *)
        io.io_bgr_active <- false;
        Trace.emit c.trace
          (Trace.Background_stopped
             { reason = "foreground buffer overflow; Sscan is the safer strategy" })
      end;
      s
  | s -> s

(* ------------------------------------------------------------------ *)
(* Planning                                                            *)
(* ------------------------------------------------------------------ *)

(* A retrieval's one planning decision (§4, §7): the tactic chosen from
   the initial stage's candidates, whether it delivers in the requested
   order, and its behavior assembled from Tactic combinators
   (DESIGN.md §17).  Each arm above is a one-quantum closure over the
   tactic's state; phase sequencing ([then_]: the background settles,
   then the final stage), cost competition ([race]: the §3
   foreground/background switch), and mid-flight takeover ([preempt]:
   index-only's sure list replacing the Sscan) belong to the
   combinators.  The arms read and write the cursor, so the
   composition is a function of it; [open_] puts it under the cursor's
   one [distinct].  A stage holding a page-handle cache drops it at
   the end of its own step. *)
type plan = { kind : tactic_kind; ordered : bool; compose : cursor -> Tactic.t }

let cancelled = { kind = Cancelled; ordered = false; compose = (fun _ -> Tactic.halt) }

let tscan_plan table meter restriction =
  let step = tscan_step table meter restriction in
  { kind = Static_tscan; ordered = false; compose = (fun _ -> step) }

let chosen trace tactic reason =
  Trace.emit trace (Trace.Tactic_chosen { tactic = tactic_to_string tactic; reason })

let others_than cand cands =
  List.filter (fun c -> c.Scan.idx.Table.idx_name <> cand.Scan.idx.Table.idx_name) cands

let provides cand order_by = Table.index_provides_order cand.Scan.idx ~order:order_by

(* Cheapest self-sufficient scan, compared against Tscan. *)
let covering_sscan_choice table (classified : Initial_stage.classified) =
  match classified.Initial_stage.self_sufficient with
  | [] -> None
  | ss ->
      let cost c = Cost_model.index_scan_cost c.Scan.idx ~entries:c.Scan.est in
      let best =
        List.fold_left (fun acc c -> if cost c < cost acc then c else acc) (List.hd ss) ss
      in
      if cost best <= Cost_model.tscan_cost table then Some best else None

(* A static Fscan or Sscan delivers in order iff the index it scans
   provides the order. *)
let fscan_plan trace table meter restriction ~order_by oi reason =
  chosen trace Static_fscan reason;
  let f = Fscan.create table meter oi ~restriction in
  let step () =
    let s = Fscan.step f in
    Fscan.drop_cache f;
    s
  in
  { kind = Static_fscan; ordered = provides oi order_by; compose = (fun _ -> step) }

let sscan_plan trace table meter restriction ~order_by ss reason =
  chosen trace Static_sscan reason;
  let s = Sscan.create table meter ss ~restriction in
  let step () = Sscan.step s in
  { kind = Static_sscan; ordered = provides ss order_by; compose = (fun _ -> step) }

(* Choose the tactic, announce it, and build its scans.  The scan
   constructors charge and emit nothing (B-tree multi-cursors and the
   heap cursor are lazy); the sorted tactic's clustering probe charges
   and can fault, after its [Tactic_chosen]. *)
let plan cfg table trace restriction goal ~order_by ~fgr_meter ~bgr_meter
    (classified : Initial_stage.classified) =
  let cands = classified.Initial_stage.jscan_candidates in
  let best_ss = covering_sscan_choice table classified in
  match (goal, order_by, classified.Initial_stage.order_index) with
  | Goal.Fast_first, _ :: _, Some oi
    when not (Table.index_covers oi.Scan.idx ~columns:(Predicate.columns oi.Scan.residual))
         || best_ss = None ->
      (* Order-providing fetch-needed index: sorted tactic if any other
         index can build a filter, else classical Fscan. *)
      let others = others_than oi cands in
      if others = [] then
        fscan_plan trace table fgr_meter restriction ~order_by oi
          "only the order-needed index is useful"
      else if not cfg.bgr_enabled then
        fscan_plan trace table fgr_meter restriction ~order_by oi
          "background refinement disabled (overload degradation)"
      else begin
        chosen trace Sorted_tactic "order-delivering Fscan with filter-delivering Jscan";
        (* The background Jscan builds a *filter*: it competes against
           the foreground Fscan's remaining cost (scan plus one fetch
           per in-range entry), not against a Tscan. *)
        let fscan_cost =
          Cost_model.index_scan_cost oi.Scan.idx ~entries:oi.Scan.est
          +. Cost_model.key_order_fetch_cost table oi.Scan.idx ~entries:oi.Scan.est
        in
        let jscan =
          Jscan.create table bgr_meter
            { cfg.jscan with Jscan.filter_against = Some fscan_cost }
            trace ~candidates:others
        in
        let so =
          {
            so_fscan = Fscan.create table fgr_meter oi ~restriction;
            so_jscan = jscan;
            so_bgr_active = true;
          }
        in
        {
          kind = Sorted_tactic;
          ordered = provides oi order_by;
          compose =
            (fun c ->
              Tactic.race
                ~choose:(fun () ->
                  if so.so_bgr_active && not (prefer_fgr c) then `Right else `Left)
                ~left:(fun () -> sorted_fg c so)
                ~right:(fun () -> sorted_bg c so));
        }
      end
  | _ -> (
      match (best_ss, cands) with
      | Some ss, _ -> (
          match others_than ss cands with
          | [] ->
              sscan_plan trace table fgr_meter restriction ~order_by ss
                "single useful self-sufficient index"
          | _ :: _ when not cfg.bgr_enabled ->
              sscan_plan trace table fgr_meter restriction ~order_by ss
                "background refinement disabled (overload degradation)"
          | others ->
              chosen trace Index_only_tactic "self-sufficient Sscan competes with Jscan";
              let jscan =
                Jscan.create table bgr_meter cfg.jscan trace ~candidates:others
              in
              let io =
                {
                  io_sscan = Sscan.create table fgr_meter ss ~restriction;
                  io_cand = ss;
                  io_jscan = jscan;
                  io_bgr_active = true;
                  io_stage2 = None;
                }
              in
              {
                kind = Index_only_tactic;
                ordered = false;
                compose =
                  (fun c ->
                    Tactic.preempt
                      (fun () -> io.io_stage2)
                      (Tactic.race
                         ~choose:(fun () ->
                           if io.io_bgr_active && not (prefer_fgr c) then `Right
                           else `Left)
                         ~left:(fun () -> index_only_fg c io)
                         ~right:(fun () -> index_only_bg c io)));
              })
      | None, [] ->
          if classified.Initial_stage.union_candidates <> [] then begin
            chosen trace Union_tactic "every OR disjunct has a usable index";
            let us =
              Uscan.create table bgr_meter cfg.jscan trace
                ~disjuncts:classified.Initial_stage.union_candidates
            in
            {
              kind = Union_tactic;
              ordered = false;
              compose =
                (fun c ->
                  Tactic.then_
                    (fun () ->
                      match Uscan.step us with
                      | `Working -> Scan.Continue
                      | `Faulted f -> bg_failed c (Uscan.abandon us) f
                      | `Finished _ -> Scan.Done)
                    (fun () -> stage2_successor c (Option.get (Uscan.outcome us))));
            }
          end
          else begin
            chosen trace Static_tscan "no useful index";
            tscan_plan table fgr_meter restriction
          end
      | None, _ :: _ -> (
          match goal with
          | Goal.Total_time ->
              chosen trace Background_only "total-time with fetch-needed indexes";
              let jscan =
                Jscan.create table bgr_meter cfg.jscan trace ~candidates:cands
              in
              {
                kind = Background_only;
                ordered = false;
                compose =
                  (fun c ->
                    Tactic.then_
                      (fun () ->
                        match Jscan.step jscan with
                        | `Working -> Scan.Continue
                        | `Faulted f -> bg_failed c (Jscan.quarantine jscan) f
                        | `Finished _ -> Scan.Done)
                      (fun () -> stage2_successor c (Option.get (Jscan.outcome jscan))));
              }
          | Goal.Fast_first ->
              chosen trace Fast_first_tactic "fast-first with fetch-needed indexes";
              let ff =
                {
                  ff_jscan =
                    Jscan.create table bgr_meter cfg.jscan trace ~candidates:cands;
                  ff_active = true;
                  ff_wasted = 0;
                }
              in
              {
                kind = Fast_first_tactic;
                ordered = false;
                compose =
                  (fun c ->
                    Tactic.then_
                      (fun () -> fast_first_phase1 c ff)
                      (fun () ->
                        stage2_successor c (Option.get (Jscan.outcome ff.ff_jscan))));
              }))

(* ------------------------------------------------------------------ *)
(* Cursor API                                                          *)
(* ------------------------------------------------------------------ *)

let needed_columns table (req : request) restriction =
  let projection =
    match req.projection with
    | Some cols -> cols
    | None -> List.map (fun c -> c.Schema.name) (Schema.columns (Table.schema table))
  in
  let all = projection @ Predicate.columns restriction @ req.order_by in
  List.sort_uniq compare all

let open_ ?(config = default_config) table (req : request) =
  (match config.deadline with
  | Some d when Float.is_nan d -> invalid_arg "Retrieval.open_: deadline is NaN"
  | _ -> ());
  let trace = Trace.create () in
  Trace.emit trace (Trace.Span_begin { span = "plan" });
  let fgr_meter = Cost.create () in
  let bgr_meter = Cost.create () in
  let est_meter = Cost.create () in
  let restriction = Predicate.simplify (Predicate.bind req.restriction req.env) in
  let schema = Table.schema table in
  (* Resolve every named column before planning: an unknown one fails
     here, by name, whatever the table holds. *)
  let compiled = Predicate.compile restriction schema in
  List.iter
    (fun col ->
      if not (Schema.mem schema col) then
        invalid_arg ("Retrieval.open_: unknown projection column " ^ col))
    (Option.value req.projection ~default:[]);
  let order_ids =
    Array.of_list
      (List.map
         (fun col ->
           match Schema.find schema col with
           | Some i -> i
           | None -> invalid_arg ("Retrieval.open_: unknown ORDER BY column " ^ col))
         req.order_by)
  in
  let goal, goal_provenance =
    Goal.resolve ?explicit:req.explicit_goal ?context:req.context
      ~default:Goal.Total_time ()
  in
  let p, feedback_pending =
    if restriction = Predicate.False then (cancelled, [])
    else begin
      match
        match
          Initial_stage.run table est_meter trace
            ~feedback_rate:config.feedback_rate ~restriction
            ~needed_columns:(needed_columns table req restriction)
            ~order_by:req.order_by
        with
        | Initial_stage.No_rows _ -> (cancelled, [])
        | Initial_stage.Arranged classified ->
            let p =
              plan config table trace restriction goal ~order_by:req.order_by ~fgr_meter
                ~bgr_meter classified
            in
            (* Candidates a completed scan can later teach from: the
               inexact ones (exact estimates have nothing to learn). *)
            let pending =
              if config.feedback_rate > 0.0 then
                List.filter
                  (fun cand -> not cand.Scan.est_exact)
                  (classified.Initial_stage.jscan_candidates
                  @ classified.Initial_stage.union_candidates)
              else []
            in
            (p, pending)
      with
      | exception Fault.Injected f ->
          (* Planning faulted (estimation descent, clustering probe).
             Estimates are advice: degrade to the plan that needs
             none. *)
          Trace.emit trace
            (Trace.Fault_detected { site = "planning"; fault = Fault.describe f });
          Trace.emit trace
            (Trace.Fallback_tscan { reason = "fault during planning" });
          chosen trace Static_tscan "fault during planning";
          (tscan_plan table fgr_meter restriction, [])
      | planned -> planned
    end
  in
  Trace.emit trace (Trace.Span_end { span = "plan"; cost = Cost.total est_meter; rows = 0 });
  Trace.emit trace (Trace.Span_begin { span = "execute" });
  let needs_sort = req.order_by <> [] && not p.ordered in
  let c =
    {
      table;
      cfg = config;
      trace;
      tactic = p.kind;
      goal;
      goal_provenance;
      restriction;
      compiled;
      tac = Tactic.halt;
      fgr_meter;
      bgr_meter;
      est_meter;
      order_ids;
      sorted_rows = None;
      presort = [];
      needs_sort;
      ordered_by_index = p.ordered;
      feedback_pending;
      delivered_rids = Rid_set.create ();
      driver = None;
      last_failed = false;
      pending_bg = None;
      aborted = None;
      deadline_hit = None;
      delivered = 0;
      first_row_cost = None;
      closed = false;
      summary = None;
    }
  in
  c.tac <- Tactic.distinct c.delivered_rids (p.compose c);
  c

(* ------------------------------------------------------------------ *)
(* Degradation policies                                                *)
(* ------------------------------------------------------------------ *)

(* A non-retriable fault also feeds the table's health registry: the
   structure backing the faulted file is marked suspect (checksum
   mismatch) or quarantined (dead), so *later* queries stop planning
   with it instead of rediscovering the fault.  Spill and foreign
   files map to no structure and are skipped. *)
let note_structure_fault c (f : Fault.failure) =
  match Table.structure_of_file c.table f.Fault.file with
  | None -> ()
  | Some structure ->
      let health = Table.health c.table in
      let now = Table.now c.table in
      let tr =
        match f.Fault.kind with
        | Fault.Corrupt -> Health.record_corrupt health ~now structure
        | Fault.Persistent | Fault.Transient | Fault.Spill_full ->
            Health.record_dead health ~now structure
      in
      Initial_stage.note_health c.table c.trace tr

let abort_query c f =
  Trace.emit c.trace (Trace.Query_aborted { fault = Fault.describe f });
  c.aborted <- Some (Fault.describe f)

(* A foreground index path died: swap in the guaranteed-safe Tscan,
   skipping rows already delivered (it runs under the cursor's one
   [distinct] set).  If delivery order came from the index, the
   already-delivered prefix holds the lowest keys, so sorting the
   remainder keeps the whole stream ordered. *)
let fallback_tscan c f =
  Trace.emit c.trace (Trace.Fallback_tscan { reason = Fault.describe f });
  if c.ordered_by_index then c.needs_sort <- true;
  c.tac <- Tactic.distinct c.delivered_rids (tscan_step c.table c.fgr_meter c.restriction)

(* Retrieval's degradation ladder as a Tactic.Policy stack, one rung
   per recourse, tried in order (DESIGN.md §17).  The driver owns
   consecutive-fault counting; the rungs own what the count means:
   bounded retry with deterministic backoff for transient faults, then
   quarantine (background), fallback (foreground index path), or abort
   (heap).  Exactly one rung decides each fault, and a deciding
   escalation rung's first effect is feeding the health registry. *)

let fault_site c (f : Fault.failure) =
  (if Option.is_some c.pending_bg then "background " else "foreground ")
  ^ Fault.class_name f.Fault.class_

let retry_rung c =
  Tactic.Policy.bounded_retry ~limit:retry_limit
    ~penalize:(fun f ~consec ->
      (* The i-th consecutive retry charges i physical reads to the
         faulted side's meter, so repeated faults both show up in
         the cost accounting and shift the foreground/background
         interleave away from the flaky device. *)
      let meter = if Option.is_some c.pending_bg then c.bgr_meter else c.fgr_meter in
      for _ = 1 to consec do
        Cost.charge_physical meter
      done;
      Trace.emit c.trace
        (Trace.Fault_retry { site = fault_site c f; attempt = consec; penalty = consec }))

let quarantine_rung c =
  Tactic.Policy.rung ~name:"quarantine" (fun f ~consec:_ ->
      match c.pending_bg with
      | Some quarantine ->
          note_structure_fault c f;
          quarantine f;
          Some Driver.Absorb
      | None -> None)

let abort_heap_rung c =
  Tactic.Policy.rung ~name:"abort-heap" (fun f ~consec:_ ->
      match f.Fault.class_ with
      | Fault.Heap ->
          note_structure_fault c f;
          abort_query c f;
          Some Driver.Stop
      | Fault.Index | Fault.Spill | Fault.Other -> None)

let fallback_rung c =
  Tactic.Policy.rung ~name:"tscan-fallback" (fun f ~consec:_ ->
      note_structure_fault c f;
      fallback_tscan c f;
      Some Driver.Absorb)

(* Which rungs arm for which tactic: background-bearing tactics can
   quarantine the faulted competitor; foreground index paths can fall
   back to Tscan; a Tscan (and the cancelled plan) only ever touches
   the heap, whose sole recourse past retrying is the structured
   abort.  The armed stack and EXPLAIN's description both read this
   one list. *)
let ladder tactic ~retry ~quarantine ~abort_heap ~fallback =
  match tactic with
  | Background_only | Fast_first_tactic | Sorted_tactic | Index_only_tactic
  | Union_tactic ->
      [ retry; quarantine; abort_heap; fallback ]
  | Static_sscan | Static_fscan -> [ retry; abort_heap; fallback ]
  | Static_tscan | Cancelled -> [ retry; abort_heap ]

let policy_stack c =
  Tactic.Policy.stack
    (ladder c.tactic ~retry:(retry_rung c) ~quarantine:(quarantine_rung c)
       ~abort_heap:(abort_heap_rung c) ~fallback:(fallback_rung c))

let fault_policy c =
  Tactic.Policy.seal
    ~observe:(fun f ~consec:_ ->
      Trace.emit c.trace
        (Trace.Fault_detected { site = fault_site c f; fault = Fault.describe f }))
    (policy_stack c)

(* The ladder a given tactic kind arms, as EXPLAIN prints it. *)
let policy_description tactic =
  String.concat " \xe2\x87\x92 "
    (ladder tactic
       ~retry:(Printf.sprintf "retry(%d)" retry_limit)
       ~quarantine:"quarantine" ~abort_heap:"abort-heap" ~fallback:"tscan-fallback")

let driver_of c =
  match c.driver with
  | Some d -> d
  | None ->
      let d = Driver.make (fault_policy c) in
      c.driver <- Some d;
      d

let settle c s = ignore (Driver.settle (driver_of c) s : Driver.progress)

(* One quantum of raw progress: one step of the composed tactic — the
   unit the multi-query session scheduler interleaves by — with its
   outcome settled through the driver's fault policy.  The step comes
   back as the tactic yielded it: a [Failed] one has been settled
   (retried, absorbed, or stopped — only the abort-heap rung stops, and
   it aborts the cursor, which the next quantum sees) and counts as a
   quantum of work without a row.  A delivered row is already recorded
   by the cursor's [distinct], so a fallback never redelivers it.

   Only the steps whose settle can change something go through the
   driver: a [Failed] one, the step right after it, and [Done].  Any
   other step finds the consecutive-fault count at 0 — only a [Retry]
   leaves it positive, and the step after a failure resets it — so
   settling it would change nothing. *)
let quantum_raw c =
  if c.aborted <> None then Scan.Done
  else begin
    (* [pending_bg] is only ever set on a path that returns [Failed]:
       clearing it per step blames each fault on the side that raised
       it. *)
    (match c.pending_bg with Some _ -> c.pending_bg <- None | None -> ());
    let s = c.tac () in
    (match s with
    | Scan.Deliver _ | Scan.Continue ->
        if c.last_failed then begin
          c.last_failed <- false;
          settle c s
        end
    | Scan.Done ->
        c.last_failed <- false;
        settle c s
    | Scan.Failed _ ->
        c.last_failed <- true;
        settle c s);
    s
  end

(* The one cost bound: once charged cost reaches [config.deadline] the
   cursor stops for good.  The check that first sees it records the
   [Deadline_exceeded] event, and [close] reports [Timed_out].
   [deadline_reached] tests a clock reading the caller already took;
   [past_deadline] takes one, and only when a deadline is armed. *)
let deadline_reached c spent =
  match (c.deadline_hit, c.cfg.deadline) with
  | Some _, _ -> true
  | None, Some deadline when (not c.closed) && spent >= deadline ->
      Trace.emit c.trace (Trace.Deadline_exceeded { spent; deadline });
      c.deadline_hit <- Some (spent, deadline);
      true
  | None, _ -> false

let past_deadline c =
  match c.cfg.deadline with None -> false | Some _ -> deadline_reached c (total_cost c)

(* One quantum past the stop checks.  [Deliver] hands a row out; [Done]
   means exhausted or aborted (the summary tells which); [Continue] and
   a settled [Failed] made progress without a row. *)
let advance c =
  let s =
    if not c.needs_sort then quantum_raw c
    else
      match c.sorted_rows with
      | Some ((rid, row) :: rest) ->
          c.sorted_rows <- Some rest;
          Scan.Deliver (rid, row)
      | Some [] -> Scan.Done
      | None -> (
          match quantum_raw c with
          | Scan.Deliver (rid, row) ->
              c.presort <- (rid, row) :: c.presort;
              Scan.Continue
          | (Scan.Continue | Scan.Failed _) as s -> s
          | Scan.Done ->
              (* Materialize and sort (the SORT node that made this goal
                 total-time in the first place). *)
              let arr = Array.of_list (List.rev c.presort) in
              c.presort <- [];
              Array.sort (fun (_, a) (_, b) -> Row.compare_at c.order_ids a b) arr;
              Cost.charge_cpu c.fgr_meter (Array.length arr);
              c.sorted_rows <- Some (Array.to_list arr);
              Scan.Continue)
  in
  (match s with
  | Scan.Deliver _ ->
      c.delivered <- c.delivered + 1;
      if c.first_row_cost = None then c.first_row_cost <- Some (total_cost c)
  | Scan.Continue | Scan.Done | Scan.Failed _ -> ());
  s

(* One quantum of the stream API; [Done] also once closed or timed out. *)
let step c = if c.closed || past_deadline c then Scan.Done else advance c

let rec fetch c =
  match step c with
  | Scan.Deliver (_, row) -> Some row
  | Scan.Continue | Scan.Failed _ -> fetch c
  | Scan.Done -> None

let drain_pairs c =
  let rec loop acc =
    match step c with
    | Scan.Deliver (rid, row) -> loop ((rid, row) :: acc)
    | Scan.Continue | Scan.Failed _ -> loop acc
    | Scan.Done -> List.rev acc
  in
  loop []

let spent = total_cost

(* The cost bound joins the stop predicate after the caller's [stop],
   tested on the loop's one clock reading, so a caller that is done (a
   LIMIT reached) pauses rather than times out; a grant that exhausts
   the cursor reports that first.  The step re-tests only [closed]: the
   stop has just tested the deadline against the same reading. *)
let grant c ~budget ~max_steps ~stop ~on_row =
  let finished = ref false in
  Driver.clocked_loop
    ~spent:(fun () -> total_cost c)
    ~budget ~max_steps
    ~stop:(fun now -> stop () || deadline_reached c now)
    ~step:(fun () ->
      match if c.closed then Scan.Done else advance c with
      | Scan.Deliver (_, row) ->
          on_row row;
          `Continue
      | Scan.Continue | Scan.Failed _ -> `Continue
      | Scan.Done ->
          finished := true;
          `Finished);
  if !finished then `Exhausted
  else if Option.is_some c.deadline_hit then `Timed_out
  else `Paused

let rows_delivered c = c.delivered
let tactic c = c.tactic

(* Bucket ladder for the estimate-vs-actual error factor (always >= 1;
   a factor of 1 is a perfect estimate). *)
let error_buckets = [| 1.0; 1.25; 1.5; 2.0; 4.0; 8.0; 16.0 |]

(* Per-index estimate-vs-actual error factors, from the trace: pair
   each [Estimated] with the [Scan_completed] of the same index and
   report max(est/actual, actual/est). *)
let estimate_errors events =
  let actuals = Hashtbl.create 4 in
  List.iter
    (function
      | Trace.Scan_completed { index; scanned; _ } ->
          Hashtbl.replace actuals index scanned
      | _ -> ())
    events;
  List.filter_map
    (function
      | Trace.Estimated { index; estimate; _ } -> (
          match Hashtbl.find_opt actuals index with
          | Some scanned ->
              let actual = Float.max 1.0 (float_of_int scanned) in
              let est = Float.max 1.0 estimate in
              Some (Float.max (est /. actual) (actual /. est))
          | None -> None)
      | _ -> None)
    events

let is_switch_point = function
  | Trace.Foreground_stopped _ | Trace.Background_stopped _ | Trace.Use_tscan _
  | Trace.Simultaneous_winner _ | Trace.Scan_discarded _ ->
      true
  | _ -> false

let is_degradation = function
  | Trace.Index_quarantined _ | Trace.Fallback_tscan _ | Trace.Query_aborted _
  | Trace.Deadline_exceeded _ ->
      true
  | _ -> false

(* Close the feedback loop (DESIGN.md §13): pair each inexact planned
   candidate with the completed scan of the same index and fold the
   (estimate, actual) observation into the table's feedback store.
   Completed scans are the only observation source — [Scan_completed]
   fires only when a range walk ran to end-of-range, so [scanned] is
   the true range cardinality; discarded or truncated scans teach
   nothing.  An index appearing more than once on either side (union
   disjuncts can share an index) is skipped as ambiguous. *)
let feed_back c events =
  let rate = c.cfg.feedback_rate in
  if rate > 0.0 && c.feedback_pending <> [] then begin
    (* name -> (value, occurrences); an index seen more than once on
       either side is ambiguous and teaches nothing. *)
    let estimates = Hashtbl.create 4 in
    let completions = Hashtbl.create 4 in
    List.iter
      (function
        | Trace.Estimated { index; estimate; exact; _ } -> (
            match Hashtbl.find_opt estimates index with
            | Some (_, _, n) -> Hashtbl.replace estimates index (estimate, exact, n + 1)
            | None -> Hashtbl.add estimates index (estimate, exact, 1))
        | Trace.Scan_completed { index; scanned; _ } -> (
            match Hashtbl.find_opt completions index with
            | Some (_, n) -> Hashtbl.replace completions index (scanned, n + 1)
            | None -> Hashtbl.add completions index (scanned, 1))
        | _ -> ())
      events;
    let names =
      List.map (fun cand -> cand.Scan.idx.Table.idx_name) c.feedback_pending
    in
    let unique name = List.length (List.filter (String.equal name) names) = 1 in
    let observed = ref 0 in
    List.iter
      (fun cand ->
        let name = cand.Scan.idx.Table.idx_name in
        if unique name then
          (* Teach only from a real announced descent (the pessimistic
             whole-index default after an estimation shortcut emits no
             [Estimated] event and must not skew the cell) that is
             inexact (exact cells have nothing to learn), paired with
             exactly one completed walk. *)
          match
            (Hashtbl.find_opt estimates name, Hashtbl.find_opt completions name)
          with
          | Some (est, false, 1), Some (scanned, 1) ->
              Feedback.observe (Table.feedback c.table) ~rate ~name
                ~key:cand.Scan.ranges ~est ~actual:(float_of_int scanned);
              incr observed
          | _ -> ())
      c.feedback_pending;
    match c.cfg.metrics with
    | Some m when !observed > 0 ->
        let module M = Rdb_util.Metrics in
        M.add (M.counter m "feedback.observations") !observed;
        M.set (M.gauge m "feedback.cells")
          (float_of_int (Feedback.cells (Table.feedback c.table)))
    | _ -> ()
  end

let record_metrics c events =
  match c.cfg.metrics with
  | None -> ()
  | Some m ->
      let module M = Rdb_util.Metrics in
      let count name = M.incr (M.counter m name) in
      let add name n = if n > 0 then M.add (M.counter m name) n in
      let observe name v = M.observe (M.histogram m name) v in
      count "retrieval.count";
      count (M.labeled "retrieval.tactic" (tactic_to_string c.tactic));
      observe "retrieval.cost.total" (total_cost c);
      observe "retrieval.cost.foreground" (Cost.total c.fgr_meter);
      observe "retrieval.cost.background" (Cost.total c.bgr_meter);
      observe "retrieval.cost.estimation" (Cost.total c.est_meter);
      observe "retrieval.rows" (float_of_int c.delivered);
      add "retrieval.switch_points" (List.length (List.filter is_switch_point events));
      add "retrieval.faults"
        (List.length
           (List.filter (function Trace.Fault_detected _ -> true | _ -> false) events));
      add "retrieval.degradations" (List.length (List.filter is_degradation events));
      add "feedback.applied"
        (List.length
           (List.filter (function Trace.Feedback_applied _ -> true | _ -> false) events));
      List.iter
        (fun e -> M.observe (M.histogram ~buckets:error_buckets m "retrieval.estimate_error") e)
        (estimate_errors events)

let close c =
  match c.summary with
  | Some s -> s
  | None ->
      c.closed <- true;
      (match c.tactic with
      | Background_only | Fast_first_tactic | Sorted_tactic | Index_only_tactic
      | Union_tactic ->
          Trace.emit c.trace
            (Trace.Span_end
               { span = "foreground"; cost = Cost.total c.fgr_meter; rows = c.delivered });
          Trace.emit c.trace
            (Trace.Span_end { span = "background"; cost = Cost.total c.bgr_meter; rows = 0 })
      | _ -> ());
      Trace.emit c.trace
        (Trace.Span_end
           {
             span = "execute";
             cost = Cost.total c.fgr_meter +. Cost.total c.bgr_meter;
             rows = c.delivered;
           });
      Trace.emit c.trace
        (Trace.Retrieval_done { rows = c.delivered; cost = total_cost c });
      let status =
        match (c.aborted, c.deadline_hit) with
        | Some fault, _ -> Aborted { fault }
        | None, Some (spent, deadline) -> Timed_out { spent; deadline }
        | None, None -> Completed
      in
      let events = Trace.events c.trace in
      feed_back c events;
      record_metrics c events;
      let s =
        {
          rows_delivered = c.delivered;
          total_cost = total_cost c;
          cost_to_first_row = c.first_row_cost;
          tactic = c.tactic;
          goal = c.goal;
          goal_provenance = c.goal_provenance;
          policy = Tactic.Policy.describe (policy_stack c);
          status;
          trace = events;
        }
      in
      c.summary <- Some s;
      s

let run ?config ?limit table req =
  (match limit with
  | Some n when n < 0 -> invalid_arg (Printf.sprintf "Retrieval.run: negative limit %d" n)
  | _ -> ());
  let c = open_ ?config table req in
  let rows = ref [] in
  let continue_ () =
    match limit with Some n -> c.delivered < n | None -> true
  in
  let rec loop () =
    if continue_ () then begin
      match fetch c with
      | Some row ->
          rows := row :: !rows;
          loop ()
      | None -> ()
    end
  in
  loop ();
  (List.rev !rows, close c)
