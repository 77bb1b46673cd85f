open Rdb_btree
open Rdb_data
open Rdb_storage

type index = {
  idx_name : string;
  key_columns : string list;
  key_ids : int array;
  tree : Btree.t;
}

type t = {
  name : string;
  schema : Schema.t;
  heap : Heap_file.t;
  pool : Buffer_pool.t;
  mutable indexes : index list;
  build : Cost.t;
  mutable preferred : string list;
  clustering_cache : (string, float * int) Hashtbl.t;
      (* index -> (factor, row_count at measurement) *)
  health : Health.t;
  feedback : Feedback.t;
}

let create ?page_bytes pool ~name schema =
  let heap = Heap_file.create ?page_bytes pool in
  Buffer_pool.name_file pool ~file:(Heap_file.file_id heap) ("table:" ^ name);
  let health = Health.create () in
  (* Quarantine verdicts are durable facts about storage: mirror every
     quarantine/escalation/clear into the pool's manifest so a restart
     can reconstruct the registry (DESIGN.md §15).  Observation-only
     and cost-free — crash-free runs are unaffected. *)
  let manifest = Buffer_pool.manifest pool in
  Health.set_observer health (fun structure verdict ->
      match verdict with
      | Health.Verdict_quarantined { escalations } ->
          Manifest.record_quarantine manifest ~table:name ~structure ~escalations
      | Health.Verdict_cleared ->
          Manifest.clear_quarantine manifest ~table:name ~structure);
  {
    name;
    schema;
    heap;
    pool;
    indexes = [];
    build = Cost.create ();
    preferred = [];
    clustering_cache = Hashtbl.create 4;
    health;
    feedback = Feedback.create ();
  }

let name t = t.name
let schema t = t.schema
let heap t = t.heap
let pool t = t.pool
let indexes t = t.indexes

let find_index t iname = List.find_opt (fun i -> i.idx_name = iname) t.indexes

let row_count t = Heap_file.record_count t.heap
let page_count t = Heap_file.page_count t.heap

let index_key idx row = Row.project row idx.key_ids

let insert t row =
  (match Schema.validate_row t.schema row with
  | Ok () -> ()
  | Error e -> invalid_arg (Printf.sprintf "Table.insert(%s): %s" t.name e));
  let rid = Heap_file.insert t.heap row in
  List.iter (fun idx -> Btree.insert idx.tree t.build (index_key idx row) rid) t.indexes;
  rid

let delete t rid =
  match Heap_file.fetch t.heap t.build rid with
  | None -> false
  | Some row ->
      List.iter
        (fun idx -> ignore (Btree.delete idx.tree t.build (index_key idx row) rid))
        t.indexes;
      Heap_file.delete t.heap t.build rid

let update t rid row =
  (match Schema.validate_row t.schema row with
  | Ok () -> ()
  | Error e -> invalid_arg (Printf.sprintf "Table.update(%s): %s" t.name e));
  match Heap_file.fetch t.heap t.build rid with
  | None -> false
  | Some old ->
      if Heap_file.update t.heap t.build rid row then begin
        List.iter
          (fun idx ->
            let old_key = index_key idx old and new_key = index_key idx row in
            if Btree.compare_key old_key new_key <> 0 then begin
              ignore (Btree.delete idx.tree t.build old_key rid);
              Btree.insert idx.tree t.build new_key rid
            end)
          t.indexes;
        true
      end
      else false

let create_index t ?(fanout = 64) ~name:iname ~columns () =
  if find_index t iname <> None then
    invalid_arg ("Table.create_index: duplicate index " ^ iname);
  if columns = [] then invalid_arg "Table.create_index: no columns";
  let key_ids =
    Array.of_list
      (List.map
         (fun c ->
           match Schema.find t.schema c with
           | Some i -> i
           | None -> invalid_arg ("Table.create_index: unknown column " ^ c))
         columns)
  in
  let tree = Btree.create ~fanout t.pool in
  Buffer_pool.name_file t.pool ~file:(Btree.file_id tree) ("index:" ^ iname);
  let idx = { idx_name = iname; key_columns = columns; key_ids; tree } in
  Heap_file.iter t.heap t.build (fun rid row -> Btree.insert tree t.build (index_key idx row) rid);
  t.indexes <- t.indexes @ [ idx ];
  Manifest.commit_index (Buffer_pool.manifest t.pool) ~table:t.name ~index:iname
    ~file:(Btree.file_id tree);
  idx

let index_covers idx ~columns =
  List.for_all (fun c -> List.mem c idx.key_columns) columns

let index_provides_order idx ~order =
  let rec prefix req keys =
    match (req, keys) with
    | [], _ -> true
    | _, [] -> false
    | r :: rs, k :: ks -> r = k && prefix rs ks
  in
  prefix order idx.key_columns

(* Probe the adjacency of consecutive index entries at random spots
   across the whole key space (a prefix walk would be dominated by the
   hottest key).  Each probe descends to a sampled key and inspects a
   short run of consecutive entries. *)
let measure_clustering t idx =
  let probes = 64 and run_length = 8 in
  let rng = Rdb_util.Prng.create ~seed:(Hashtbl.hash idx.idx_name) in
  let samples = Sampling.ranked rng idx.tree t.build ~n:probes in
  let adjacent = ref 0 and pairs = ref 0 in
  Array.iter
    (fun (key, _) ->
      let cursor =
        Btree.cursor idx.tree t.build { Btree.lo = Btree.Incl key; hi = Btree.Unbounded }
      in
      let prev = ref None in
      let rec walk n =
        if n > 0 then begin
          match Btree.next cursor with
          | None -> ()
          | Some (_, rid) ->
              (match !prev with
              | Some (p : Rid.t) ->
                  incr pairs;
                  if rid.Rid.page = p.Rid.page || rid.Rid.page = p.Rid.page + 1 then
                    incr adjacent
              | None -> ());
              prev := Some rid;
              walk (n - 1)
        end
      in
      walk run_length)
    samples.Sampling.samples;
  if !pairs = 0 then 1.0 else float_of_int !adjacent /. float_of_int !pairs

let clustering_factor t idx =
  let fresh () =
    let f = measure_clustering t idx in
    Hashtbl.replace t.clustering_cache idx.idx_name (f, row_count t);
    f
  in
  match Hashtbl.find_opt t.clustering_cache idx.idx_name with
  | Some (f, at_rows) ->
      let rows = row_count t in
      if abs (rows - at_rows) * 10 > Int.max 1 at_rows then fresh () else f
  | None -> fresh ()

let build_meter t = t.build

let preferred_order t = t.preferred

let set_preferred_order t order = t.preferred <- order

(* --- self-healing support ------------------------------------------- *)

let heap_structure = "heap"

let health t = t.health

(* The health clock: total cost ever charged through this table's pool.
   Deterministic, monotone, and it advances with actual load — a busy
   database retries a quarantined index sooner in wall-clock terms but
   after the same amount of useful work. *)
let now t = Cost.total (Buffer_pool.global_meter t.pool)

let structure_of_file t file =
  if file = Heap_file.file_id t.heap then Some heap_structure
  else
    List.find_map
      (fun idx -> if Btree.file_id idx.tree = file then Some idx.idx_name else None)
      t.indexes

let index_usable t idx = Health.usable t.health ~now:(now t) idx.idx_name

(* Count health transitions in the pool's metrics registry (if one is
   attached); the trace event is the caller's job. *)
let note_transition t = function
  | None -> None
  | Some tr ->
      (match Buffer_pool.metrics t.pool with
      | None -> ()
      | Some m ->
          let module M = Rdb_util.Metrics in
          M.incr (M.counter m "health.transitions");
          M.incr
            (M.counter m
               (M.labeled "health.to_state" (Health.state_to_string tr.Health.tr_to))));
      Some tr

let feedback t = t.feedback

let invalidate_stats t =
  Hashtbl.reset t.clustering_cache;
  t.preferred <- [];
  Feedback.reset t.feedback

(* Crash teardown: everything this table keeps outside the heap pages
   and committed trees is volatile — health states and counters,
   learned feedback, cached clustering, the preferred order.  The
   manifest (reachable via the pool) survives; recovery reconstructs
   health from it. *)
let reset_volatile t =
  Health.reset t.health;
  invalidate_stats t

let replace_index t ~name:iname tree =
  match List.find_opt (fun i -> i.idx_name = iname) t.indexes with
  | None -> invalid_arg ("Table.replace_index: unknown index " ^ iname)
  | Some old ->
      Buffer_pool.name_file t.pool ~file:(Btree.file_id tree) ("index:" ^ iname);
      Buffer_pool.evict_file t.pool (Btree.file_id old.tree);
      Manifest.commit_index (Buffer_pool.manifest t.pool) ~table:t.name ~index:iname
        ~file:(Btree.file_id tree);
      t.indexes <-
        List.map
          (fun i -> if i.idx_name = iname then { i with tree } else i)
          t.indexes;
      (* A rebuilt index carries a fresh physical layout and fresh
         descent statistics: drop every cached estimate derived from
         the old tree so the next initial stage re-seeds them. *)
      invalidate_stats t
