open Rdb_btree
open Rdb_data
open Rdb_engine
open Rdb_exec
open Rdb_storage

type result = {
  rows : Row.t list;
  cost : float;
  trace : Trace.event list;
  used_tscan : bool;
}

let run ?(keep_threshold = 0.25) ?limit table pred ~env =
  let meter = Cost.create () in
  let trace = Trace.create () in
  let restriction = Predicate.simplify (Predicate.bind pred env) in
  let card = float_of_int (Int.max 1 (Table.row_count table)) in
  (* Static selection: estimate every index once, keep those under the
     fixed threshold, order ascending.  This *is* dynamic estimation
     at start-retrieval time — what MoHa90 supports — but nothing is
     revisited once scanning begins. *)
  let candidates =
    List.filter_map
      (fun idx ->
        let extraction = Range_extract.for_index restriction idx in
        if not extraction.Range_extract.bounded then None
        else begin
          let r = Estimate.ranges idx.Table.tree meter extraction.Range_extract.ranges in
          if r.Estimate.estimate > keep_threshold *. card then None
          else
            Some
              {
                Scan.idx;
                ranges = extraction.Range_extract.ranges;
                residual = extraction.Range_extract.residual;
                est = r.Estimate.estimate;
                est_exact = r.Estimate.exact;
              }
        end)
      (Table.indexes table)
  in
  let candidates =
    List.stable_sort (fun a b -> Float.compare a.Scan.est b.Scan.est) candidates
  in
  let tscan () =
    let t = Tscan.create table meter restriction in
    fun () -> Tscan.step t
  in
  let used_tscan, step =
    if candidates = [] then begin
      Trace.emit trace
        (Trace.Use_tscan { reason = "no index under the static threshold" });
      (true, tscan ())
    end
    else begin
      let cfg = { Jscan.default_config with dynamic = false; simultaneous = false } in
      let jscan = Jscan.create table meter cfg trace ~candidates in
      match Jscan.run jscan with
      | Jscan.Rid_list rids ->
          let fin =
            Final_stage.create table meter ~rids ~restriction ~exclude:(fun _ -> false)
          in
          (false, fun () -> Final_stage.step fin)
      | Jscan.Recommend_tscan _ -> (true, tscan ())
    end
  in
  let rows = Static_optimizer.drain ?limit step in
  Trace.emit trace
    (Trace.Retrieval_done { rows = List.length rows; cost = Cost.total meter });
  { rows; cost = Cost.total meter; trace = Trace.events trace; used_tscan }
