(* oltp: point lookups, fast-first LIMIT probes and EXISTS-style probes
   through the cursor API, with one op in five a single-row SQL write.

   ORDERS (30k rows) fits the 4,096-block pool, so pool misses, big
   scans and the scheduler do almost no work: planning ([open_]) and the
   write path dominate.  One closed-loop client.

   The seed makes the op stream; the table is the same in every run
   ([data_seed]).  Which ops make the top 1% depends on the data draw
   (how many of a product's rows fall under a LIMIT probe's price cap):
   with the data drawn from the seed, p99 moved by 10-15% from seed to
   seed on top of the machine's own spread. *)

open Rdb_data
open Rdb_engine
module R = Rdb_core.Retrieval
module Goal = Rdb_core.Goal
module Datasets = Rdb_workload.Datasets
module Prng = Rdb_util.Prng
module P = Predicate
open Bench

let rows = 30_000
let customers = 2000
let products = 500
let pool_blocks = 4096
let data_seed = 1

(* The op stream is generated once from the seed; the timed phase walks
   it (wrapping if it runs out) for the run's seconds, in whole blocks of
   [block_ops].  Writes sit at every fifth op and each inserted row is
   updated and deleted by the next two writes, so every multiple of 15
   ops leaves the table as it found it.  A block (6,000 reads) visits
   every product exactly three times in each product-keyed read kind,
   and gives each product's three LIMIT probes the same three price caps
   whatever the seed: lookups of the few hot products and LIMIT probes
   that find fewer than five rows set the latency tail, so every run
   times the same set of them.  The first [counted_ops] ops (8,000
   reads: each read kind visits every customer once or every product
   four times) give the counts that repeat exactly for a seed.  Every
   timed op's answer is checked. *)
let stream_ops = 45_000
let block_ops = 7_500
let counted_ops = 10_000
let warmup_ops = 3_000
let setups = 5

type key = Cust of int | Prod of int

type read = { pred : P.t; key : key; limit : int option }
type op = Read of read | Write of string

(* Single-row writes on ORDERS, located through PRICE_IDX.  The rows
   carry values outside every range the reads ask for (PRICE >= 6000,
   CUSTOMER >= 3000, PRODUCT >= 1000), and the row inserted by write
   [3k] is updated by [3k + 1] and deleted by [3k + 2]. *)
let write_sql k = function
  | 0 ->
      Printf.sprintf "INSERT INTO ORDERS VALUES (%d, %d, %d, %d, %d, 1)" (10_000_000 + k)
        (3000 + (k mod 50)) (1000 + (k mod 50)) (400 + (k mod 30)) (6000 + k)
  | 1 ->
      Printf.sprintf "UPDATE ORDERS SET CUSTOMER = %d, QTY = 2 WHERE PRICE = %d"
        (3100 + (k mod 50)) (6000 + k)
  | _ -> Printf.sprintf "DELETE FROM ORDERS WHERE PRICE = %d" (6000 + k)

(* Reads take the four kinds in turn; each kind draws its keys from its
   own seeded cycles, so the counted ops visit every customer and every
   product a whole number of times.  The [n]th visit of product [p] by
   the LIMIT probe caps PRICE in the ([n] mod 3)th third of the price
   range, at an offset fixed by [p]. *)
let price_cap p n = 100 + (((4900 * (n mod 3)) + (p * 1609 mod 4900)) / 3)

let gen_ops seed =
  let rng = Prng.create ~seed:((seed * 7919) + 101) in
  let int_ v = Value.int v in
  let cust_point = cycle rng customers and prod_point = cycle rng products in
  let prod_limit = cycle rng products and limits = ref 0 in
  let cust_exists = cycle rng customers and prod_exists = cycle rng products in
  Array.init stream_ops (fun i ->
      if i mod 5 = 4 then
        let j = i / 5 in
        Write (write_sql (j / 3) (j mod 3))
      else
        match (i - (i / 5)) mod 4 with
        | 0 ->
            let c = cust_point () in
            Read { pred = P.("CUSTOMER" =% int_ c); key = Cust c; limit = None }
        | 1 ->
            let p = prod_point () in
            Read { pred = P.("PRODUCT" =% int_ p); key = Prod p; limit = None }
        | 2 ->
            (* fast-first LIMIT probe *)
            let p = prod_limit () in
            let x = price_cap p (!limits / products) in
            incr limits;
            Read
              {
                pred = P.(And [ "PRODUCT" =% int_ p; "PRICE" <% int_ x ]);
                key = Prod p;
                limit = Some 5;
              }
        | _ ->
            (* EXISTS-style probe: is there any such row? *)
            let c = cust_exists () and p = prod_exists () in
            Read
              {
                pred = P.(And [ "CUSTOMER" =% int_ c; "PRODUCT" =% int_ p ]);
                key = Cust c;
                limit = Some 1;
              })

let request r =
  R.request ?explicit_goal:(if r.limit <> None then Some Goal.Fast_first else None) r.pred

let block_write_weight = Rdb_storage.Cost.default_weights.Rdb_storage.Cost.block_write

(* What a timed op answered: the rows of a LIMIT read, the multiset
   digest of any other read, a write's message. *)
type result = Limited of Row.t list | Multiset of (int * int) | Message of string

type timed = {
  latency_us : Samples.t;
  first_row_us : Samples.t;
  write_us : Samples.t;
  block_s : Samples.t;  (** wall seconds of each block *)
  mutable ops : int;
  mutable seconds : float;
  results : result Buf.t;  (** every timed op; op [k] ran [ops.(k mod n)] *)
  (* the counted ops *)
  cost : float array;
  mutable words : float;
  mutable peak_mb : float;  (** top heap when the counted ops are done *)
  mutable rows : int;
}

(* One read through the cursor API: open_, fetch up to the limit, close. *)
let do_read ~config tracer (layers : Layers.t option) table r ~first_row =
  let got, s = cursor_read ~config tracer table (request r) ~limit:r.limit ~first_row in
  Option.iter (fun l -> Layers.add_read l got s) layers;
  (got, s.R.total_cost)

let do_write ~config tracer (layers : Layers.t option) db sql =
  let stmt = span tracer "parser.parse" (fun () -> Rdb_sql.Parser.parse_statement sql) in
  let res =
    span tracer "executor.execute" (fun () -> Rdb_sql.Executor.execute ~config db stmt)
  in
  Option.iter (fun l -> Layers.add_statement l res ~written:1) layers;
  res

(* The timed phase: walk the stream in whole blocks until [seconds] have
   passed and the counted ops are done. *)
let timed_phase ~config ?tracer ?layers ~seconds db table ops =
  let n = Array.length ops in
  let meter = Rdb_storage.Buffer_pool.global_meter (Table.pool table) in
  let t =
    {
      latency_us = Samples.create ();
      first_row_us = Samples.create ();
      write_us = Samples.create ();
      block_s = Samples.create ();
      ops = 0;
      seconds = 0.0;
      results = Buf.create (2 * counted_ops) (Message "");
      cost = Array.make counted_ops 0.0;
      words = 0.0;
      peak_mb = 0.0;
      rows = 0;
    }
  in
  let w0 = minor_words () in
  let start = now () in
  let deadline = start +. seconds in
  let block_start = ref start in
  while t.ops < counted_ops || not (t.ops mod block_ops = 0 && now () >= deadline) do
    let k = t.ops in
    let op = ops.(k mod n) in
    let counted = k < counted_ops in
    (match tracer with Some tr -> Spans.set_op tr k | None -> ());
    let t0 = now () in
    let result =
      span tracer "op" (fun () ->
          match op with
          | Read r ->
              let got, cost =
                do_read ~config tracer layers table r ~first_row:(fun dt ->
                    if r.limit <> None then Samples.add t.first_row_us (dt *. 1e6))
              in
              if counted then begin
                t.cost.(k) <- cost;
                t.rows <- t.rows + List.length got
              end;
              if r.limit = None then Multiset (multiset got) else Limited got
          | Write sql ->
              let bw0 = Rdb_storage.Cost.block_writes meter in
              let res = do_write ~config tracer layers db sql in
              Samples.add t.write_us ((now () -. t0) *. 1e6);
              if counted then begin
                t.cost.(k) <-
                  List.fold_left
                    (fun a (_, s) -> a +. s.R.total_cost)
                    (fi (Rdb_storage.Cost.block_writes meter - bw0) *. block_write_weight)
                    res.Rdb_sql.Executor.summaries;
                t.rows <- t.rows + 1
              end;
              Message (Option.value ~default:"" res.Rdb_sql.Executor.message))
    in
    let t1 = now () in
    Samples.add t.latency_us ((t1 -. t0) *. 1e6);
    Buf.add t.results result;
    t.ops <- k + 1;
    if t.ops = counted_ops then begin
      t.words <- minor_words () -. w0;
      t.peak_mb <- peak_heap_mb ()
    end;
    if t.ops mod block_ops = 0 then begin
      Samples.add t.block_s (t1 -. !block_start);
      block_start := t1
    end
  done;
  t.seconds <- now () -. start;
  t

(* --- answer checks ---------------------------------------------------- *)

let row_key row = Row.to_string row

(* Reads must match a heap-scan oracle: as a multiset, or under LIMIT by
   count and containment.  No read can see a written row (the writes
   carry keys no read asks for), so one oracle, taken after the timed
   phase, serves every read of the stream however often it wrapped.
   Every write must touch exactly one row, and CHECK TABLE must come
   back clean with the row count unchanged. *)
let check table ops (t : timed) =
  let schema = Table.schema table in
  let by_cust = Hashtbl.create 4096 and by_prod = Hashtbl.create 1024 in
  let ci = Schema.index_of schema "CUSTOMER" and pi = Schema.index_of schema "PRODUCT" in
  let heap = heap_rows table in
  Array.iter
    (fun row ->
      let add h k =
        Hashtbl.replace h k (row :: Option.value ~default:[] (Hashtbl.find_opt h k))
      in
      (match Value.as_int (Row.get row ci) with Some c -> add by_cust c | None -> ());
      match Value.as_int (Row.get row pi) with Some p -> add by_prod p | None -> ())
    heap;
  (* the oracle's rows for stream index [i], computed once *)
  let oracle = Array.make (Array.length ops) None in
  let expected i r =
    match oracle.(i) with
    | Some rows -> rows
    | None ->
        (* candidates: the rows sharing the read's equality key *)
        let bucket =
          match r.key with
          | Cust c -> Hashtbl.find_opt by_cust c
          | Prod p -> Hashtbl.find_opt by_prod p
        in
        let rows =
          List.filter
            (fun row -> P.eval r.pred schema row)
            (Option.value ~default:[] bucket)
        in
        oracle.(i) <- Some rows;
        rows
  in
  let errors = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  for k = 0 to Buf.length t.results - 1 do
    let i = k mod Array.length ops in
    match (ops.(i), Buf.get t.results k) with
    | Read r, Multiset (n, h) ->
        let expected = expected i r in
        let n', h' = multiset expected in
        if n <> n' || h <> h' then
          fail "op %d: %s returned %d rows, oracle %d" k (P.to_string r.pred) n n'
    | Read r, Limited got ->
        let expected = expected i r in
        let lim = Option.value ~default:max_int r.limit in
        let pool = Hashtbl.create 16 in
        List.iter
          (fun row ->
            let key = row_key row in
            let c = Option.value ~default:0 (Hashtbl.find_opt pool key) in
            Hashtbl.replace pool key (c + 1))
          expected;
        let contained =
          List.for_all
            (fun row ->
              let key = row_key row in
              match Hashtbl.find_opt pool key with
              | Some c when c > 0 ->
                  Hashtbl.replace pool key (c - 1);
                  true
              | _ -> false)
            got
        in
        if List.length got <> min lim (List.length expected) || not contained then
          fail "op %d: LIMIT %d %s returned %d rows (contained %b), oracle %d" k lim
            (P.to_string r.pred) (List.length got) contained (List.length expected)
    | Write sql, Message m ->
        if not (String.starts_with ~prefix:"1 row(s)" m) then
          fail "op %d: %s -> %S" k sql m
    | Read _, Message _ -> fail "op %d: read without rows" k
    | Write sql, _ -> fail "op %d: %s without a message" k sql
  done;
  if Array.length heap <> rows then
    fail "heap holds %d rows after the writes, expected %d" (Array.length heap) rows;
  let report = Check.run table in
  List.iter
    (fun ir -> fail "CHECK TABLE ORDERS: %s" (Check.index_report_to_string ir))
    (Check.damaged report);
  List.rev !errors

(* --- the run ---------------------------------------------------------- *)

let facts table =
  Printf.sprintf
    "rows=%d heap_pages=%d index_nodes=%d pool_blocks=%d shards=1 op_stream=%d \
     (4 reads : 1 write) counted_ops=%d loop=closed clients=1"
    (Table.row_count table) (Table.page_count table) (index_nodes [ table ]) pool_blocks
    stream_ops counted_ops

let run ~seed ~seconds ~trace =
  let (db, table), setup_s =
    repeated_setup setups (fun () ->
        let db = Datasets.fresh_db ~pool_capacity:pool_blocks () in
        (db, Datasets.orders ~rows ~seed:data_seed db))
  in
  Printf.printf "workload oltp: %s seed=%d data_seed=%d\n%!" (facts table) seed
    data_seed;
  let ops = gen_ops seed in
  let config = R.default_config in
  Gc.compact ();
  (* warm-up: reads only, so the timed phase always sees the same data *)
  for i = 0 to warmup_ops - 1 do
    match ops.(i) with
    | Read r -> ignore (do_read ~config None None table r ~first_row:ignore)
    | Write _ -> ()
  done;
  let t = timed_phase ~config ~seconds db table ops in
  print_blocks "oltp" t.block_s block_ops;
  let errors = check table ops t in
  let lat = Samples.to_array t.latency_us in
  let qps = fi t.ops /. t.seconds in
  let e2e =
    [
      metric "setup_s" "s" setup_s;
      metric "throughput_qps" "ops/s" qps;
      metric "latency_p50_us" "us" (median lat);
      metric "latency_p99_us" "us" (percentile lat 0.99);
      metric "served_pct" "%" 100.0;
      metric "cost_per_op" "cost" (Array.fold_left ( +. ) 0.0 t.cost /. fi counted_ops);
      metric "cost_p99" "cost" (percentile t.cost 0.99);
      metric "alloc_words_per_row" "words" (t.words /. fi (max 1 t.rows));
      metric "peak_heap_mb" "MB" t.peak_mb;
    ]
  in
  Printf.printf
    "oltp: %d ops in %.3f s (%d fast-first probes, %d writes); first_row_p50_us=%.1f \
     write_p50_us=%.1f\n"
    t.ops t.seconds (Samples.length t.first_row_us) (Samples.length t.write_us)
    (median (Samples.to_array t.first_row_us))
    (median (Samples.to_array t.write_us));
  if not trace then (errors, t.ops, e2e)
  else begin
    (* traced run: same seed and data, a second timed phase with spans,
       the metrics registry and every summary's trace *)
    let l = Layers.create () in
    l.Layers.untraced_qps <- qps;
    let pool = Table.pool table in
    let tr = Spans.create (Rdb_storage.Buffer_pool.global_meter pool) in
    Rdb_storage.Buffer_pool.set_metrics pool (Some l.Layers.registry);
    let config = { config with R.metrics = Some l.Layers.registry } in
    let m = Layers.mark pool in
    let tt = timed_phase ~config ~tracer:tr ~layers:l ~seconds db table ops in
    Layers.close_phase l pool m ~ops:tt.ops;
    Layers.snapshot_self l tr;
    Rdb_storage.Buffer_pool.set_metrics pool None;
    (* first-row and write latency come from the untraced phase *)
    Array.iter (Samples.add l.Layers.first_row_us) (Samples.to_array t.first_row_us);
    Array.iter (Samples.add l.Layers.write_us) (Samples.to_array t.write_us);
    let errors = errors @ check table ops tt in
    let reads =
      List.filter_map (function Read r -> Some r | Write _ -> None) (Array.to_list ops)
    in
    let probe_reads = List.filteri (fun i _ -> i < 200) reads in
    Probes.index_probes l table
      (List.map (fun r -> Probes.ranges_of table r.pred) probe_reads);
    Bench.write_spans tr ~workload:"oltp" ~seed;
    (errors, t.ops, Layers.metrics l tr)
  end
