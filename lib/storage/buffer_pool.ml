module Metrics = Rdb_util.Metrics

type block = { file : int; index : int }

(* Doubly-linked LRU list threaded through a hash table. *)
type node = {
  block : block;
  mutable prev : node option;
  mutable next : node option;
}

(* Per-shard metric names are precomputed at shard construction so the
   hot path never formats a string. *)
type shard_metrics = {
  m_lookups : string;
  m_hit : string;
  m_miss : string;
  m_evict : string;
  m_write : string;
}

(* One independent LRU domain.  Every piece of state the monolithic
   pool used to keep globally — residency table, LRU list, count,
   probe counter, eviction stamp — lives per shard, so shards never
   contend: an eviction in one shard cannot invalidate a handle or
   reorder recency in another. *)
type shard = {
  sh_cap : int;
  sh_table : (block, node) Hashtbl.t;
  mutable sh_head : node option; (* most recently used *)
  mutable sh_tail : node option; (* least recently used *)
  mutable sh_count : int;
  mutable sh_lookups : int; (* residency probes, charged accesses only *)
  mutable sh_stamp : int; (* bumped on any eviction; invalidates handles *)
  sh_metrics : shard_metrics;
}

type t = {
  cap : int;
  mutable shards : shard array;
  mutable next_file : int;
  mutable retired_lookups : int; (* probes performed before the last reshard *)
  global : Cost.t;
  classes : (int, Fault.file_class) Hashtbl.t;
  mutable injector : Fault.t option;
  names : (int, string) Hashtbl.t;  (* file id -> human label for metrics *)
  mutable metrics : Metrics.t option;
  manifest : Manifest.t;  (* durable metadata root (survives crashes) *)
}

(* A handle pins no memory: it remembers the LRU node a lookup found
   (or created), the shard that owns it, and the shard's eviction
   stamp at that moment.  [retouch] replays the hit path through the
   node, skipping the hash probe — valid only while no eviction has
   happened in that shard since, which the stamp check enforces
   conservatively (any eviction in the shard invalidates every
   outstanding handle on it; evictions in other shards do not). *)
type handle = { h_node : node; h_shard : shard; h_stamp : int }

let make_shard ~cap k =
  {
    sh_cap = cap;
    sh_table = Hashtbl.create (cap * 2);
    sh_head = None;
    sh_tail = None;
    sh_count = 0;
    sh_lookups = 0;
    sh_stamp = 0;
    sh_metrics =
      {
        m_lookups = Printf.sprintf "pool.shard%d.lookups" k;
        m_hit = Printf.sprintf "pool.shard%d.hit" k;
        m_miss = Printf.sprintf "pool.shard%d.miss" k;
        m_evict = Printf.sprintf "pool.shard%d.evict" k;
        m_write = Printf.sprintf "pool.shard%d.write" k;
      };
  }

(* Capacity is split as evenly as integer division allows: the first
   [capacity mod n] shards get one extra block.  [shards = 1] puts the
   whole capacity in shard 0 — the monolithic pool, byte for byte. *)
let make_shards ~capacity n =
  Array.init n (fun k ->
      make_shard ~cap:((capacity / n) + if k < capacity mod n then 1 else 0) k)

let create ?(shards = 1) ~capacity () =
  if capacity < 1 then invalid_arg "Buffer_pool.create: capacity < 1";
  if shards < 1 then invalid_arg "Buffer_pool.create: shards < 1";
  if capacity < shards then invalid_arg "Buffer_pool.create: capacity < shards";
  {
    cap = capacity;
    shards = make_shards ~capacity shards;
    next_file = 0;
    retired_lookups = 0;
    global = Cost.create ();
    classes = Hashtbl.create 16;
    injector = None;
    names = Hashtbl.create 16;
    metrics = None;
    manifest = Manifest.create ();
  }

let capacity t = t.cap
let shards t = Array.length t.shards

let resident t = Array.fold_left (fun acc sh -> acc + sh.sh_count) 0 t.shards

(* Deterministic multiplicative mix over {file; index} — independent of
   [Hashtbl.hash] so the partition is identical on every OCaml version
   and word size (folded to 30 bits).  [shards = 1] short-circuits so
   the single-shard pool never pays the hash. *)
let shard_index t (b : block) =
  let n = Array.length t.shards in
  if n = 1 then 0
  else
    let h = (b.file * 0x9e3779b1) lxor (b.index * 0x7feb352d) in
    (h land 0x3fffffff) mod n

let shard_of t b = t.shards.(shard_index t b)
let shard_of_block t b = shard_index t b
let shard_lookups t = Array.map (fun sh -> sh.sh_lookups) t.shards
let shard_residents t = Array.map (fun sh -> sh.sh_count) t.shards
let shard_capacities t = Array.map (fun sh -> sh.sh_cap) t.shards

(* max/mean skew of a per-shard lookup vector: 1.0 = perfectly
   balanced, [n] = everything on one of n shards.  Degenerate vectors
   (single shard, no lookups) read as balanced. *)
let lookup_balance counts =
  let n = Array.length counts in
  let total = Array.fold_left ( + ) 0 counts in
  if n <= 1 || total = 0 then 1.0
  else
    let mx = Array.fold_left max 0 counts in
    float_of_int (mx * n) /. float_of_int total

let shard_lookup_balance t = lookup_balance (shard_lookups t)

let fresh_file t =
  let id = t.next_file in
  t.next_file <- id + 1;
  id

let classify t ~file cls = Hashtbl.replace t.classes file cls

let file_class t file =
  match Hashtbl.find_opt t.classes file with
  | Some cls -> cls
  | None -> Fault.Other

let set_injector t inj = t.injector <- inj
let injector t = t.injector

(* --- observability ---------------------------------------------------
   Observation-only by contract: recording never touches the LRU lists,
   the cost meters, or residency, so enabling a registry cannot change
   results or charged costs (pinned in test/test_metrics.ml). *)

let set_metrics t m = t.metrics <- m
let metrics t = t.metrics

let name_file t ~file name = Hashtbl.replace t.names file name

let file_label t file =
  match Hashtbl.find_opt t.names file with
  | Some n -> n
  | None -> "file" ^ string_of_int file

let record t event file =
  match t.metrics with
  | None -> ()
  | Some m ->
      Metrics.incr (Metrics.counter m (Metrics.labeled ("pool." ^ event) (file_label t file)))

(* Per-shard counters exist only on a partitioned pool: at [shards = 1]
   the metrics stream is byte-identical to the monolithic pool's. *)
let record_shard t name =
  if Array.length t.shards > 1 then
    match t.metrics with
    | None -> ()
    | Some m -> Metrics.incr (Metrics.counter m name)

(* Fault injectors raise; count the fault against the faulted file
   before letting the failure propagate to the degradation policies.
   Callers look the injector up first, so an access without one builds
   no closure. *)
let inject t block f =
  try f () with
  | Fault.Injected _ as e ->
      record t "fault" block.file;
      raise e

let inject_read t block ~hit =
  match t.injector with
  | None -> ()
  | Some inj ->
      inject t block (fun () ->
          Fault.on_read inj ~cls:(file_class t block.file) ~file:block.file
            ~index:block.index ~hit)

let unlink sh n =
  (match n.prev with Some p -> p.next <- n.next | None -> sh.sh_head <- n.next);
  (match n.next with Some s -> s.prev <- n.prev | None -> sh.sh_tail <- n.prev);
  n.prev <- None;
  n.next <- None

let push_front sh n =
  n.next <- sh.sh_head;
  n.prev <- None;
  (match sh.sh_head with Some h -> h.prev <- Some n | None -> sh.sh_tail <- Some n);
  sh.sh_head <- Some n

let evict_lru t sh =
  match sh.sh_tail with
  | None -> ()
  | Some n ->
      unlink sh n;
      Hashtbl.remove sh.sh_table n.block;
      sh.sh_count <- sh.sh_count - 1;
      sh.sh_stamp <- sh.sh_stamp + 1;
      record t "evict" n.block.file;
      record_shard t sh.sh_metrics.m_evict

let make_resident t sh block =
  let n = { block; prev = None; next = None } in
  if sh.sh_count >= sh.sh_cap then evict_lru t sh;
  Hashtbl.replace sh.sh_table block n;
  push_front sh n;
  sh.sh_count <- sh.sh_count + 1;
  n

let probe t sh block =
  sh.sh_lookups <- sh.sh_lookups + 1;
  record t "lookups" block.file;
  record_shard t sh.sh_metrics.m_lookups;
  Hashtbl.find_opt sh.sh_table block

let hit_charges t sh meter block =
  Cost.charge_logical meter;
  Cost.charge_logical t.global;
  record t "hit" block.file;
  record_shard t sh.sh_metrics.m_hit;
  inject_read t block ~hit:true

(* One charged read access: the probe, then the hit or the miss path.
   Either way the block's node ends at the head of its shard's LRU
   list, which is where [touch_read_h] takes its handle from. *)
let read_access t sh meter block =
  match probe t sh block with
  | Some n ->
      unlink sh n;
      push_front sh n;
      hit_charges t sh meter block;
      `Hit
  | None ->
      (* The I/O attempt is charged whether or not it succeeds; on a
         fault the block does *not* become resident (the read failed,
         there is nothing to cache), so a retry is another miss. *)
      Cost.charge_physical meter;
      Cost.charge_physical t.global;
      record t "miss" block.file;
      record_shard t sh.sh_metrics.m_miss;
      inject_read t block ~hit:false;
      ignore (make_resident t sh block : node);
      `Miss

let touch_read t meter block = read_access t (shard_of t block) meter block

let touch_read_h t meter block =
  let sh = shard_of t block in
  let kind = read_access t sh meter block in
  match sh.sh_head with
  | Some n -> (kind, { h_node = n; h_shard = sh; h_stamp = sh.sh_stamp })
  | None -> assert false (* [read_access] just put the block's node there *)

let touch t meter block = ignore (touch_read t meter block)

let retouch t meter h =
  if h.h_stamp <> h.h_shard.sh_stamp then false
  else begin
    (* Replay the hit path exactly — LRU bump, charges, metrics and
       injector stream all identical to [touch_read] on a resident
       block — minus the hash probe, which is the point. *)
    let n = h.h_node in
    unlink h.h_shard n;
    push_front h.h_shard n;
    hit_charges t h.h_shard meter n.block;
    true
  end

let write t meter block =
  let sh = shard_of t block in
  Cost.charge_write meter;
  Cost.charge_write t.global;
  record t "write" block.file;
  record_shard t sh.sh_metrics.m_write;
  (match t.injector with
  | None -> ()
  | Some inj ->
      inject t block (fun () ->
          Fault.on_write inj ~cls:(file_class t block.file) ~file:block.file
            ~index:block.index));
  match probe t sh block with
  | Some n ->
      unlink sh n;
      push_front sh n
  | None -> ignore (make_resident t sh block)

let is_resident t block = Hashtbl.mem (shard_of t block).sh_table block

let evict_file t file =
  Array.iter
    (fun sh ->
      let doomed =
        Hashtbl.fold
          (fun b n acc -> if b.file = file then n :: acc else acc)
          sh.sh_table []
      in
      if doomed <> [] then sh.sh_stamp <- sh.sh_stamp + 1;
      List.iter
        (fun n ->
          unlink sh n;
          Hashtbl.remove sh.sh_table n.block;
          sh.sh_count <- sh.sh_count - 1)
        doomed)
    t.shards

let flush t =
  Array.iter
    (fun sh ->
      Hashtbl.reset sh.sh_table;
      sh.sh_head <- None;
      sh.sh_tail <- None;
      sh.sh_count <- 0;
      sh.sh_stamp <- sh.sh_stamp + 1)
    t.shards

let reshard t ~shards =
  if shards < 1 then invalid_arg "Buffer_pool.reshard: shards < 1";
  if t.cap < shards then invalid_arg "Buffer_pool.reshard: capacity < shards";
  (* Residency is dropped (a flush), never migrated: redistributing
     nodes would have to invent a cross-shard recency order that no
     access pattern produced.  Outstanding handles die with their old
     shards — the stamp bump below is what [retouch] checks. *)
  t.retired_lookups <-
    Array.fold_left (fun acc sh -> acc + sh.sh_lookups) t.retired_lookups t.shards;
  Array.iter (fun sh -> sh.sh_stamp <- sh.sh_stamp + 1) t.shards;
  t.shards <- make_shards ~capacity:t.cap shards

let lookups t =
  Array.fold_left (fun acc sh -> acc + sh.sh_lookups) t.retired_lookups t.shards

let global_meter t = t.global
let manifest t = t.manifest
