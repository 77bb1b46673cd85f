open Rdb_btree
open Rdb_storage
open Rdb_engine

let w = Cost.default_weights

let tscan_cost table =
  let pages = float_of_int (Table.page_count table) in
  let rows = float_of_int (Table.row_count table) in
  (pages *. w.Cost.physical_read) +. (rows *. w.Cost.cpu_op)

let rid_fetch_cost table ~k =
  if k <= 0 then 0.0
  else begin
    let n = Table.row_count table in
    let per_block = Heap_file.records_per_page (Table.heap table) in
    let pages = Rdb_util.Yao.blocks ~n ~per_block ~k in
    (pages *. w.Cost.physical_read) +. (float_of_int k *. w.Cost.cpu_op)
  end

let index_scan_cost idx ~entries =
  let tree = idx.Table.tree in
  let per_leaf = Float.max 1.0 (Btree.avg_leaf_entries tree) in
  let leaves = entries /. per_leaf in
  let descent = float_of_int (Btree.height tree) in
  ((leaves +. descent) *. w.Cost.physical_read) +. (entries *. w.Cost.cpu_op)

let key_order_fetch_cost table idx ~entries =
  if entries <= 0.0 then 0.0
  else begin
    let clustering = Table.clustering_factor table idx in
    let per_block = float_of_int (Heap_file.records_per_page (Table.heap table)) in
    let clustered_pages = entries /. per_block in
    let distinct_pages =
      Rdb_util.Yao.blocks ~n:(Table.row_count table)
        ~per_block:(Heap_file.records_per_page (Table.heap table))
        ~k:(int_of_float (ceil entries))
    in
    (* Random fetch order revisits pages; once the working set exceeds
       the buffer pool, most revisits miss.  Expected physical reads
       interpolate between "each distinct page once" (pool holds them
       all) and "every fetch misses". *)
    let capacity = float_of_int (Buffer_pool.capacity (Table.pool table)) in
    let hit_ratio = Rdb_util.Stats.clamp (capacity /. Float.max 1.0 distinct_pages) ~lo:0.0 ~hi:1.0 in
    let unclustered_pages =
      Float.max distinct_pages (entries *. (1.0 -. hit_ratio))
    in
    let pages =
      (clustering *. clustered_pages) +. ((1.0 -. clustering) *. unclustered_pages)
    in
    (pages *. w.Cost.physical_read) +. (entries *. w.Cost.cpu_op)
  end
