(* Layer probes of the traced run, on each workload's own inputs.  They
   run after the traced phase, so they move none of its metrics.

   [Estimate.range] and [Btree.cursor] run over the index ranges the
   workload's ops used, [Heap_file.fetch] and [Buffer_pool.touch_read]
   over the RIDs those ranges hold and their pages; each reports wall ns
   and minor words per call, charged to a throwaway meter. *)

open Rdb_data
open Rdb_storage
open Rdb_engine
module Btree = Rdb_btree.Btree
module Estimate = Rdb_btree.Estimate
module S = Rdb_core.Session
open Bench

(* Index ranges a bound restriction uses: one entry per index whose
   extracted range is narrower than the whole index. *)
let ranges_of table pred =
  let pred = Predicate.simplify pred in
  List.filter_map
    (fun (idx : Table.index) ->
      let r = Range_extract.for_index pred idx in
      if r.Range_extract.bounded then Some (idx, r.Range_extract.ranges) else None)
    (Table.indexes table)

(* Run [f] over [items] in whole rounds for at least 0.1 s; return (ns
   per call, minor words per call). *)
let timed_rounds items f =
  let n = Array.length items in
  if n = 0 then (0.0, 0.0)
  else begin
    let calls = ref 0 and t0 = now () and w0 = minor_words () in
    while !calls = 0 || now () -. t0 < 0.1 do
      Array.iter f items;
      calls := !calls + n
    done;
    let dt = now () -. t0 and dw = minor_words () -. w0 in
    (dt *. 1e9 /. fi !calls, dw /. fi !calls)
  end

let max_rids = 20_000
let max_keys_per_range = 5_000

(* [ranges]: the (index, ranges) lists of the ops, in op order. *)
let index_probes (l : Layers.t) table ranges =
  let meter = Cost.create () in
  let pairs =
    Array.of_list
      (List.concat_map
         (fun per_op ->
           List.concat_map
             (fun ((idx : Table.index), rs) -> List.map (fun r -> (idx.Table.tree, r)) rs)
             per_op)
         ranges)
  in
  let ns, w =
    timed_rounds pairs (fun (tree, r) -> ignore (Estimate.range tree meter r))
  in
  l.Layers.estimate_ns <- ns;
  l.Layers.estimate_words <- w;
  (* B-tree cursor walks: one pass counts the keys and collects the RIDs
     they yield, then timed passes give the cost per key *)
  let walk f (tree, r) =
    let c = Btree.cursor tree meter r in
    let rec go k =
      if k < max_keys_per_range then
        match Btree.next c with
        | Some (_, rid) ->
            f rid;
            go (k + 1)
        | None -> ()
    in
    go 0
  in
  let rids = ref [] and nrids = ref 0 and keys = ref 0 in
  Array.iter
    (walk (fun rid ->
         incr keys;
         if !nrids < max_rids then begin
           rids := rid :: !rids;
           incr nrids
         end))
    pairs;
  let ns, w = timed_rounds pairs (walk ignore) in
  let pairs_per_key = ratio (fi (Array.length pairs)) (fi !keys) in
  l.Layers.cursor_ns_per_key <- ns *. pairs_per_key;
  l.Layers.cursor_words_per_key <- w *. pairs_per_key;
  let rids = Array.of_list (List.rev !rids) in
  let heap = Table.heap table in
  let ns, w = timed_rounds rids (fun rid -> ignore (Heap_file.fetch heap meter rid)) in
  l.Layers.heap_fetch_ns <- ns;
  l.Layers.heap_fetch_words <- w;
  let pool = Table.pool table in
  let file = Heap_file.file_id heap in
  let blocks = Array.map (fun rid -> { Buffer_pool.file; index = rid.Rid.page }) rids in
  let ns, w =
    timed_rounds blocks (fun b -> ignore (Buffer_pool.touch_read pool meter b))
  in
  l.Layers.touch_read_ns <- ns;
  l.Layers.touch_read_words <- w

(* Session-layer readings from one [Session.run].  [live]: live words
   retained across the run, read after a full major collection. *)
let record_session (l : Layers.t) (report : S.report) ~seconds ~words ~live =
  let sessions = Array.of_list report.S.sessions in
  let n = Array.length sessions in
  let p = report.S.pool in
  l.Layers.session_runs <- l.Layers.session_runs + 1;
  l.Layers.session_s <- l.Layers.session_s +. seconds;
  l.Layers.grants <- l.Layers.grants + p.S.p_grants;
  l.Layers.session_hit_rate <- p.S.p_hit_rate;
  l.Layers.lookup_balance <- p.S.p_lookup_balance;
  let ran = List.filter (fun s -> s.S.s_summary <> None) report.S.sessions in
  l.Layers.max_gap_p99 <-
    percentile (Array.of_list (List.map (fun s -> fi s.S.s_max_gap) ran)) 0.99;
  l.Layers.queue_wait_p99 <-
    percentile (Array.map (fun s -> fi s.S.s_queue_wait) sessions) 0.99;
  let degraded =
    Array.fold_left (fun a s -> if s.S.s_degraded then a + 1 else a) 0 sessions
  in
  l.Layers.degraded_pct <- 100.0 *. ratio (fi degraded) (fi n);
  l.Layers.words_per_session <- ratio words (fi n);
  l.Layers.live_kb_per_session <-
    ratio (fi live *. fi (Sys.word_size / 8) /. 1024.0) (fi n)
