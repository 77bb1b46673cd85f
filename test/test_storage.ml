(* Tests for cost meters, the LRU buffer pool (against a reference
   model), the slotted heap file and the spill store. *)

open Rdb_data
open Rdb_storage

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- cost -------------------------------------------------------------- *)

let test_cost_accumulation () =
  let m = Cost.create () in
  Cost.charge_physical m;
  Cost.charge_physical m;
  Cost.charge_logical m;
  Cost.charge_write m;
  Cost.charge_cpu m 100;
  check_int "phys" 2 (Cost.physical_reads m);
  check_int "log" 1 (Cost.logical_reads m);
  let expected = 2.0 +. 0.01 +. 1.0 +. (100.0 *. 0.0001) in
  Alcotest.(check (float 1e-9)) "weighted" expected (Cost.total m)

(* A meter holding exactly the given counters, built through the public
   API: each counter is grown bit by bit in a meter of its own
   ([add m m] doubles it) and the four are summed into one. *)
let meter_with ~physical ~logical ~writes ~cpu =
  let grown charge n =
    let m = Cost.create () in
    for bit = 62 downto 0 do
      Cost.add m m;
      if n land (1 lsl bit) <> 0 then charge m
    done;
    m
  in
  let m = Cost.create () in
  Cost.add m (grown Cost.charge_physical physical);
  Cost.add m (grown Cost.charge_logical logical);
  Cost.add m (grown Cost.charge_write writes);
  Cost.charge_cpu m cpu;
  m

(* [total3] is a retrieval's clock: every deadline and budget decision
   compares its reading, so it must equal the three-call sum bit for
   bit, not within a tolerance. *)
let prop_total3_bit_identical =
  let counter = QCheck.Gen.(oneof [ int_bound 1000; int_bound (1 lsl 40) ]) in
  let counters = QCheck.Gen.(quad counter counter counter counter) in
  QCheck.Test.make ~name:"total3 bit-identical to summed totals" ~count:500
    QCheck.(make Gen.(triple counters counters counters))
    (fun (a, b, c) ->
      let meter (physical, logical, writes, cpu) =
        let m = meter_with ~physical ~logical ~writes ~cpu in
        assert (
          ( Cost.physical_reads m,
            Cost.logical_reads m,
            Cost.block_writes m,
            Cost.cpu_ops m )
          = (physical, logical, writes, cpu));
        m
      in
      let a = meter a and b = meter b and c = meter c in
      Int64.bits_of_float (Cost.total3 a b c)
      = Int64.bits_of_float (Cost.total a +. Cost.total b +. Cost.total c))

let test_cost_add_snapshot () =
  let a = Cost.create () and b = Cost.create () in
  Cost.charge_physical a;
  Cost.charge_write b;
  let snap = Cost.snapshot a in
  Cost.add a b;
  check "snapshot unchanged" true (Cost.total snap = 1.0);
  Alcotest.(check (float 1e-9)) "added" 2.0 (Cost.total a);
  Alcotest.(check (float 1e-9)) "since" 1.0 (Cost.since a snap)

(* --- buffer pool -------------------------------------------------------- *)

let block file index : Buffer_pool.block = { Buffer_pool.file; index }

let test_pool_hit_miss () =
  let p = Buffer_pool.create ~capacity:2 () in
  let m = Cost.create () in
  Buffer_pool.touch p m (block 0 0);
  Buffer_pool.touch p m (block 0 0);
  check_int "one miss" 1 (Cost.physical_reads m);
  check_int "one hit" 1 (Cost.logical_reads m)

let test_pool_lru_eviction () =
  let p = Buffer_pool.create ~capacity:2 () in
  let m = Cost.create () in
  Buffer_pool.touch p m (block 0 0);
  Buffer_pool.touch p m (block 0 1);
  Buffer_pool.touch p m (block 0 0);
  (* 0 is now MRU *)
  Buffer_pool.touch p m (block 0 2);
  (* evicts 1 *)
  check "0 resident" true (Buffer_pool.is_resident p (block 0 0));
  check "1 evicted" false (Buffer_pool.is_resident p (block 0 1));
  check "2 resident" true (Buffer_pool.is_resident p (block 0 2))

let test_pool_evict_file_and_flush () =
  let p = Buffer_pool.create ~capacity:8 () in
  let m = Cost.create () in
  for i = 0 to 3 do
    Buffer_pool.touch p m (block 1 i);
    Buffer_pool.touch p m (block 2 i)
  done;
  check_int "resident 8" 8 (Buffer_pool.resident p);
  Buffer_pool.evict_file p 1;
  check_int "file 1 gone" 4 (Buffer_pool.resident p);
  check "file2 stays" true (Buffer_pool.is_resident p (block 2 0));
  Buffer_pool.flush p;
  check_int "flushed" 0 (Buffer_pool.resident p)

(* LRU reference model: list of blocks, most recent first. *)
let prop_pool_matches_model =
  QCheck.Test.make ~name:"LRU pool matches reference model" ~count:100
    QCheck.(list (pair (int_bound 3) (int_bound 15)))
    (fun ops ->
      let cap = 4 in
      let p = Buffer_pool.create ~capacity:cap () in
      let m = Cost.create () in
      let model = ref [] in
      List.for_all
        (fun (f, i) ->
          let b = block f i in
          let hits_before = Cost.logical_reads m in
          Buffer_pool.touch p m b;
          let was_hit = Cost.logical_reads m > hits_before in
          let hit_model = List.mem b !model in
          model := b :: List.filter (( <> ) b) !model;
          if List.length !model > cap then
            model := List.filteri (fun k _ -> k < cap) !model;
          (* Hit/miss and residency must agree with the model. *)
          was_hit = hit_model
          && List.for_all (fun blk -> Buffer_pool.is_resident p blk) !model
          && Buffer_pool.resident p = List.length !model)
        ops)

let test_pool_write_makes_resident () =
  let p = Buffer_pool.create ~capacity:2 () in
  let m = Cost.create () in
  Buffer_pool.write p m (block 0 7);
  check "resident after write" true (Buffer_pool.is_resident p (block 0 7));
  check_int "write charged" 1 (Cost.block_writes m);
  Buffer_pool.touch p m (block 0 7);
  check_int "then hit" 1 (Cost.logical_reads m)

(* --- sharded pool -------------------------------------------------------- *)

(* Per-shard LRU reference model: the sharded pool must behave as n
   independent copies of the monolithic model, one per shard, each with
   its own slice of the capacity. *)
let prop_sharded_pool_matches_model =
  QCheck.Test.make ~name:"sharded pool matches per-shard LRU models" ~count:100
    QCheck.(pair (1 -- 4) (list (pair (int_bound 3) (int_bound 15))))
    (fun (shards, ops) ->
      let cap = 4 in
      let p = Buffer_pool.create ~shards ~capacity:cap () in
      let m = Cost.create () in
      let caps = Buffer_pool.shard_capacities p in
      let models = Array.make shards [] in
      List.for_all
        (fun (f, i) ->
          let b = block f i in
          let k = Buffer_pool.shard_of_block p b in
          let hits_before = Cost.logical_reads m in
          Buffer_pool.touch p m b;
          let was_hit = Cost.logical_reads m > hits_before in
          let hit_model = List.mem b models.(k) in
          models.(k) <- b :: List.filter (( <> ) b) models.(k);
          if List.length models.(k) > caps.(k) then
            models.(k) <- List.filteri (fun j _ -> j < caps.(k)) models.(k);
          was_hit = hit_model
          && Array.for_all
               (fun model -> List.for_all (Buffer_pool.is_resident p) model)
               models
          && Buffer_pool.resident p
             = Array.fold_left (fun acc model -> acc + List.length model) 0 models
          && Array.for_all2 ( = )
               (Buffer_pool.shard_residents p)
               (Array.map List.length models))
        ops)

(* shards=1 must be the monolithic pool byte-for-byte: identical
   hit/miss stream, charges, lookups, and residency on any sequence. *)
let prop_single_shard_byte_identity =
  QCheck.Test.make ~name:"shards=1 byte-identical to default pool" ~count:100
    QCheck.(list (pair (int_bound 3) (int_bound 15)))
    (fun ops ->
      let a = Buffer_pool.create ~capacity:4 () in
      let b = Buffer_pool.create ~shards:1 ~capacity:4 () in
      let ma = Cost.create () and mb = Cost.create () in
      List.for_all
        (fun (f, i) ->
          let ra = Buffer_pool.touch_read a ma (block f i) in
          let rb = Buffer_pool.touch_read b mb (block f i) in
          ra = rb
          && Cost.total ma = Cost.total mb
          && Buffer_pool.lookups a = Buffer_pool.lookups b
          && Buffer_pool.resident a = Buffer_pool.resident b)
        ops)

let test_shard_mapping_deterministic () =
  let p = Buffer_pool.create ~shards:4 ~capacity:8 () in
  let q = Buffer_pool.create ~shards:4 ~capacity:64 () in
  let used = Array.make 4 false in
  for f = 0 to 7 do
    for i = 0 to 63 do
      let k = Buffer_pool.shard_of_block p (block f i) in
      check "in range" true (k >= 0 && k < 4);
      (* capacity never affects the partition, only the per-shard caps *)
      check_int "capacity-independent" k (Buffer_pool.shard_of_block q (block f i));
      used.(k) <- true
    done
  done;
  check "every shard reachable" true (Array.for_all Fun.id used)

let test_shard_capacity_split () =
  let p = Buffer_pool.create ~shards:3 ~capacity:8 () in
  Alcotest.(check (array int)) "8 over 3" [| 3; 3; 2 |] (Buffer_pool.shard_capacities p);
  check "shards<1 rejected" true
    (try
       ignore (Buffer_pool.create ~shards:0 ~capacity:4 ());
       false
     with Invalid_argument _ -> true);
  check "capacity<shards rejected" true
    (try
       ignore (Buffer_pool.create ~shards:5 ~capacity:4 ());
       false
     with Invalid_argument _ -> true)

let test_lookup_balance () =
  let chk name exp counts =
    Alcotest.(check (float 1e-9)) name exp (Buffer_pool.lookup_balance counts)
  in
  chk "even" 1.0 [| 10; 10 |];
  chk "all on one of two" 2.0 [| 20; 0 |];
  chk "single shard" 1.0 [| 7 |];
  chk "no lookups" 1.0 [| 0; 0; 0 |];
  chk "mild skew" 1.5 [| 30; 10; 20; 20 |]

(* An eviction in one shard must not invalidate handles in another —
   the contention-isolation property that makes sharding worth it. *)
let test_handle_survives_other_shard_eviction () =
  let p = Buffer_pool.create ~shards:2 ~capacity:4 () in
  let m = Cost.create () in
  (* find a block in each shard *)
  let find_in_shard k =
    let rec go i =
      if Buffer_pool.shard_of_block p (block 0 i) = k then i else go (i + 1)
    in
    go 0
  in
  let b0 = block 0 (find_in_shard 0) in
  let _, h0 = Buffer_pool.touch_read_h p m b0 in
  (* overflow shard 1 (2 slots) to force evictions there *)
  let n = ref 0 and i = ref 0 in
  while !n < 3 do
    let b = block 1 !i in
    if Buffer_pool.shard_of_block p b = 1 then begin
      Buffer_pool.touch p m b;
      incr n
    end;
    incr i
  done;
  check "handle survives other-shard eviction" true (Buffer_pool.retouch p m h0);
  (* and an eviction in its own shard kills it *)
  let n = ref 0 and i = ref 1000 in
  while !n < 3 do
    let b = block 0 !i in
    if Buffer_pool.shard_of_block p b = 0 then begin
      Buffer_pool.touch p m b;
      incr n
    end;
    incr i
  done;
  check "own-shard eviction invalidates" false (Buffer_pool.retouch p m h0)

let test_reshard () =
  let p = Buffer_pool.create ~capacity:8 () in
  let m = Cost.create () in
  for i = 0 to 5 do
    Buffer_pool.touch p m (block 0 i)
  done;
  let _, h = Buffer_pool.touch_read_h p m (block 0 0) in
  let lookups_before = Buffer_pool.lookups p in
  Buffer_pool.reshard p ~shards:4;
  check_int "now 4 shards" 4 (Buffer_pool.shards p);
  check_int "residency dropped" 0 (Buffer_pool.resident p);
  check_int "lookups monotone" lookups_before (Buffer_pool.lookups p);
  check "old handles invalidated" false (Buffer_pool.retouch p m h);
  Buffer_pool.touch p m (block 0 0);
  Buffer_pool.touch p m (block 0 0);
  check "pool works after reshard" true (Buffer_pool.is_resident p (block 0 0));
  check_int "lookups resume counting" (lookups_before + 2) (Buffer_pool.lookups p);
  check "reshard capacity<shards rejected" true
    (try
       Buffer_pool.reshard p ~shards:9;
       false
     with Invalid_argument _ -> true)

(* --- heap file ----------------------------------------------------------- *)

let row i = [| Value.int i; Value.str (Printf.sprintf "row-%04d" i) |]

let test_heap_insert_fetch () =
  let p = Buffer_pool.create ~capacity:64 () in
  let h = Heap_file.create ~page_bytes:256 p in
  let m = Cost.create () in
  let rids = List.init 100 (fun i -> Heap_file.insert h (row i)) in
  check_int "count" 100 (Heap_file.record_count h);
  check "multiple pages" true (Heap_file.page_count h > 1);
  List.iteri
    (fun i rid ->
      match Heap_file.fetch h m rid with
      | Some r -> check "fetch roundtrip" true (Row.equal r (row i))
      | None -> Alcotest.fail "missing record")
    rids

let test_heap_delete_update () =
  let p = Buffer_pool.create ~capacity:64 () in
  let h = Heap_file.create ~page_bytes:256 p in
  let m = Cost.create () in
  let rids = Array.init 50 (fun i -> Heap_file.insert h (row i)) in
  check "delete" true (Heap_file.delete h m rids.(10));
  check "double delete" false (Heap_file.delete h m rids.(10));
  check "fetch deleted" true (Heap_file.fetch h m rids.(10) = None);
  check_int "count after delete" 49 (Heap_file.record_count h);
  check "update" true (Heap_file.update h m rids.(11) (row 999));
  check "updated value" true
    (Row.equal (Option.get (Heap_file.fetch h m rids.(11))) (row 999));
  check "update deleted fails" false (Heap_file.update h m rids.(10) (row 1))

let test_heap_scan_order_and_cost () =
  let p = Buffer_pool.create ~capacity:64 () in
  let h = Heap_file.create ~page_bytes:256 p in
  let m = Cost.create () in
  for i = 0 to 99 do
    ignore (Heap_file.insert h (row i))
  done;
  let seen = ref [] in
  Heap_file.iter h m (fun rid r ->
      ignore rid;
      seen := r :: !seen);
  let ids =
    List.rev_map (fun r -> match Row.get r 0 with Value.Int i -> i | _ -> -1) !seen
  in
  Alcotest.(check (list int)) "physical order" (List.init 100 Fun.id) ids;
  check_int "page reads = page count" (Heap_file.page_count h) (Cost.physical_reads m)

let test_heap_fetch_bogus_rid () =
  let p = Buffer_pool.create ~capacity:8 () in
  let h = Heap_file.create p in
  let m = Cost.create () in
  check "bad page" true (Heap_file.fetch h m (Rid.make ~page:99 ~slot:0) = None);
  ignore (Heap_file.insert h (row 0));
  check "bad slot" true (Heap_file.fetch h m (Rid.make ~page:0 ~slot:99) = None)

let prop_heap_matches_model =
  QCheck.Test.make ~name:"heap matches assoc model under ops" ~count:60
    QCheck.(list (pair (int_bound 2) (int_bound 30)))
    (fun ops ->
      let p = Buffer_pool.create ~capacity:64 () in
      let h = Heap_file.create ~page_bytes:200 p in
      let m = Cost.create () in
      let model = Hashtbl.create 16 in
      let rids = ref [] in
      List.iter
        (fun (op, v) ->
          match op with
          | 0 ->
              let rid = Heap_file.insert h (row v) in
              Hashtbl.replace model rid v;
              rids := rid :: !rids
          | 1 -> (
              match !rids with
              | [] -> ()
              | rid :: _ ->
                  if Hashtbl.mem model rid then begin
                    ignore (Heap_file.delete h m rid);
                    Hashtbl.remove model rid
                  end)
          | _ -> (
              match !rids with
              | [] -> ()
              | rid :: _ ->
                  if Hashtbl.mem model rid then begin
                    ignore (Heap_file.update h m rid (row v));
                    Hashtbl.replace model rid v
                  end))
        ops;
      (* A full scan, through the cursor and through [iter], yields
         exactly the model's live records in RID order, once each:
         tombstones are skipped, page boundaries crossed, and the
         cursor stays at its end. *)
      let live =
        List.sort
          (fun (a, _) (b, _) -> Rid.compare a b)
          (Hashtbl.fold (fun rid v acc -> (rid, row v) :: acc) model [])
      in
      let same got =
        List.equal (fun (r, x) (r', y) -> Rid.equal r r' && Row.equal x y) got live
      in
      let c = Heap_file.scan h m in
      let rec by_cursor acc =
        match Heap_file.next c with Some p -> by_cursor (p :: acc) | None -> List.rev acc
      in
      let scanned = by_cursor [] in
      let iterated = ref [] in
      Heap_file.iter h m (fun rid r -> iterated := (rid, r) :: !iterated);
      Hashtbl.fold
        (fun rid v acc ->
          acc
          &&
          match Heap_file.fetch h m rid with
          | Some r -> Row.equal r (row v)
          | None -> false)
        model true
      && Heap_file.record_count h = Hashtbl.length model
      && same scanned
      && Heap_file.next c = None
      && same (List.rev !iterated))

(* The heap keeps a copy of each row and hands that same array to every
   reader: the caller's array stays the caller's, and a reader's row
   never changes under it. *)
let test_heap_rows_shared_and_isolated () =
  let p = Buffer_pool.create ~capacity:64 () in
  let h = Heap_file.create ~page_bytes:256 p in
  let m = Cost.create () in
  let mine = row 7 in
  let rid = Heap_file.insert h mine in
  for i = 8 to 40 do
    ignore (Heap_file.insert h (row i))
  done;
  mine.(0) <- Value.int (-1);
  let stored = Option.get (Heap_file.fetch h m rid) in
  check "insert copies" true (Row.equal stored (row 7));
  check "fetches share" true (Option.get (Heap_file.fetch h m rid) == stored);
  let cache = Heap_file.fetch_cache () in
  check "cached fetch shares" true
    (Option.get (Heap_file.fetch_via h m cache rid) == stored);
  check "cursor shares" true
    (match Heap_file.next (Heap_file.scan h m) with
    | Some (r, row) -> Rid.equal r rid && row == stored
    | None -> false);
  let via_iter = ref [||] in
  Heap_file.iter h m (fun r row -> if Rid.equal r rid then via_iter := row);
  check "iter shares" true (!via_iter == stored);
  let replacement = row 99 in
  check "update" true (Heap_file.update h m rid replacement);
  replacement.(1) <- Value.Null;
  check "update copies" true (Row.equal (Option.get (Heap_file.fetch h m rid)) (row 99));
  check "old row keeps old values" true (Row.equal stored (row 7));
  check "delete" true (Heap_file.delete h m rid);
  check "deleted" true (Heap_file.fetch h m rid = None);
  (* Through the table, which also feeds its indexes from the row. *)
  let t =
    Rdb_engine.Table.create p ~name:"ISO"
      (Schema.make [ Schema.col "ID" Value.T_int; Schema.col "S" Value.T_str ])
  in
  let mine = row 3 in
  let rid = Rdb_engine.Table.insert t mine in
  mine.(1) <- Value.str "changed";
  check "table insert copies" true
    (Row.equal (Option.get (Heap_file.fetch (Rdb_engine.Table.heap t) m rid)) (row 3))

(* The record's stored size, written out as the bytes it would occupy:
   a 2-byte field count, then per field a tag byte and its payload. *)
let reference_record_bytes row =
  let buf = Buffer.create 64 in
  Buffer.add_uint16_le buf (Array.length row);
  Array.iter
    (fun (v : Value.t) ->
      match v with
      | Null -> Buffer.add_char buf '\000'
      | Int i ->
          Buffer.add_char buf '\001';
          Buffer.add_int64_le buf (Int64.of_int i)
      | Float f ->
          Buffer.add_char buf '\002';
          Buffer.add_int64_le buf (Int64.bits_of_float f)
      | Str s ->
          Buffer.add_char buf '\003';
          Buffer.add_int32_le buf (Int32.of_int (String.length s));
          Buffer.add_string buf s)
    row;
  Buffer.length buf

(* Pages fill by that size (plus a 4-byte slot entry each), so every
   RID lands on the page the reference packing puts it on. *)
let prop_record_bytes_match_reference =
  let gen_value =
    QCheck.Gen.(
      oneof
        [
          return Value.Null;
          map Value.int int;
          map Value.float float;
          map Value.str (string_size ~gen:printable (int_range 0 300));
        ])
  in
  QCheck.Test.make ~name:"stored size matches the reference" ~count:200
    (QCheck.make QCheck.Gen.(list_size (int_range 1 12) (array_size (int_range 0 6) gen_value)))
    (fun rows ->
      let page_bytes = 512 in
      let h = Heap_file.create ~page_bytes (Buffer_pool.create ~capacity:8 ()) in
      let _, _, expected_pages =
        List.fold_left
          (fun (page, used, acc) r ->
            let size = reference_record_bytes r + 4 in
            if page >= 0 && used + size <= page_bytes then (page, used + size, page :: acc)
            else (page + 1, size, (page + 1) :: acc))
          (-1, 0, []) rows
      in
      List.for_all (fun r -> Heap_file.record_bytes r = reference_record_bytes r) rows
      && List.map (fun r -> (Heap_file.insert h r).Rid.page) rows = List.rev expected_pages)

let test_pool_capacity_one () =
  let p = Buffer_pool.create ~capacity:1 () in
  let m = Cost.create () in
  Buffer_pool.touch p m (block 0 0);
  Buffer_pool.touch p m (block 0 1);
  Buffer_pool.touch p m (block 0 0);
  check_int "all misses" 3 (Cost.physical_reads m);
  check_int "resident 1" 1 (Buffer_pool.resident p);
  check "zero capacity rejected" true
    (try
       ignore (Buffer_pool.create ~capacity:0 ());
       false
     with Invalid_argument _ -> true)

let test_heap_huge_record_gets_own_page () =
  let p = Buffer_pool.create ~capacity:16 () in
  let h = Heap_file.create ~page_bytes:128 p in
  (* A record bigger than the page still lands somewhere (simulation
     allows overflow pages of one record). *)
  let big = [| Value.str (String.make 500 'x') |] in
  let rid1 = Heap_file.insert h big in
  let rid2 = Heap_file.insert h big in
  check "distinct pages" true (rid1.Rid.page <> rid2.Rid.page);
  let m = Cost.create () in
  check "fetch works" true (Heap_file.fetch h m rid1 <> None)

(* --- spill ----------------------------------------------------------------- *)

let test_spill_roundtrip () =
  let p = Buffer_pool.create ~capacity:64 () in
  let s = Spill.create ~rids_per_block:16 p in
  let m = Cost.create () in
  let rids = Array.init 100 (fun i -> Rid.make ~page:(i / 7) ~slot:(i mod 7)) in
  Spill.append s m rids;
  check_int "length" 100 (Spill.length s);
  Spill.seal s m;
  check_int "blocks" 7 (Spill.block_count s);
  let back = Spill.to_array s m in
  check "roundtrip order" true (Array.for_all2 Rid.equal rids back)

let test_spill_write_costs () =
  let p = Buffer_pool.create ~capacity:64 () in
  let s = Spill.create ~rids_per_block:10 p in
  let m = Cost.create () in
  Spill.append s m (Array.init 25 (fun i -> Rid.make ~page:i ~slot:0));
  check_int "two full blocks written" 2 (Cost.block_writes m);
  Spill.seal s m;
  check_int "partial tail flushed" 3 (Cost.block_writes m);
  check "append after seal" true
    (try
       Spill.append s m [| Rid.make ~page:0 ~slot:0 |];
       false
     with Invalid_argument _ -> true)

let () =
  Alcotest.run "rdb_storage"
    [
      ( "cost",
        [
          Alcotest.test_case "accumulation" `Quick test_cost_accumulation;
          Alcotest.test_case "add/snapshot" `Quick test_cost_add_snapshot;
          QCheck_alcotest.to_alcotest prop_total3_bit_identical;
        ] );
      ( "buffer_pool",
        [
          Alcotest.test_case "hit/miss" `Quick test_pool_hit_miss;
          Alcotest.test_case "LRU eviction" `Quick test_pool_lru_eviction;
          Alcotest.test_case "evict_file/flush" `Quick test_pool_evict_file_and_flush;
          Alcotest.test_case "write residency" `Quick test_pool_write_makes_resident;
          QCheck_alcotest.to_alcotest prop_pool_matches_model;
        ] );
      ( "sharding",
        [
          Alcotest.test_case "deterministic mapping" `Quick
            test_shard_mapping_deterministic;
          Alcotest.test_case "capacity split and validation" `Quick
            test_shard_capacity_split;
          Alcotest.test_case "lookup balance" `Quick test_lookup_balance;
          Alcotest.test_case "handle isolation across shards" `Quick
            test_handle_survives_other_shard_eviction;
          Alcotest.test_case "reshard" `Quick test_reshard;
          QCheck_alcotest.to_alcotest prop_sharded_pool_matches_model;
          QCheck_alcotest.to_alcotest prop_single_shard_byte_identity;
        ] );
      ( "edge-cases",
        [
          Alcotest.test_case "capacity one" `Quick test_pool_capacity_one;
          Alcotest.test_case "oversized record" `Quick test_heap_huge_record_gets_own_page;
        ] );
      ( "heap_file",
        [
          Alcotest.test_case "insert/fetch" `Quick test_heap_insert_fetch;
          Alcotest.test_case "delete/update" `Quick test_heap_delete_update;
          Alcotest.test_case "scan order and cost" `Quick test_heap_scan_order_and_cost;
          Alcotest.test_case "bogus rid" `Quick test_heap_fetch_bogus_rid;
          QCheck_alcotest.to_alcotest prop_heap_matches_model;
          Alcotest.test_case "stored rows are shared and isolated" `Quick
            test_heap_rows_shared_and_isolated;
          QCheck_alcotest.to_alcotest prop_record_bytes_match_reference;
        ] );
      ( "spill",
        [
          Alcotest.test_case "roundtrip" `Quick test_spill_roundtrip;
          Alcotest.test_case "write costs" `Quick test_spill_write_costs;
        ] );
    ]
