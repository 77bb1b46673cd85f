(** LRU buffer pool simulation, partitioned into independent shards.

    The pool does not hold data — backing stores keep their contents in
    memory — it simulates the *caching behaviour* of a page buffer:
    an access to a resident block is a cheap logical read; a miss is a
    physical read that evicts the least-recently-used block.  Heap
    pages, index nodes and spill blocks all live in one pool, which
    reproduces the paper's §3(c) uncertainty: the cost of a scan
    depends on what other scans (foreground vs background, competing
    strategies, other queries) have pulled in.

    {1 Sharding}

    The pool is split into [shards] independent LRU domains; a block
    maps to its shard by a deterministic mix of [{file; index}]
    (stable across OCaml versions — no [Hashtbl.hash]).  Each shard
    owns its slice of the capacity, its own LRU list, residency table,
    eviction stamp and lookup counter, so eviction pressure in one
    shard never invalidates handles or reorders recency in another —
    the structural prerequisite for thousands of concurrent sessions.

    Sharding steers contention and cost, never results: which blocks
    are resident (and therefore hit/miss charges, eviction order, and
    residency-dependent transient-fault draws) varies with the shard
    count, but the rows a scan returns do not.  [shards = 1] — the
    default everywhere — is byte-for-byte today's monolithic pool:
    same charges, same eviction order, same fault stream, same
    metrics (per-shard counters are only recorded when [shards > 1]). *)

type t

type block = { file : int; index : int }

val create : ?shards:int -> capacity:int -> unit -> t
(** [capacity] in blocks, split as evenly as possible across [shards]
    (default 1) LRU domains; the first [capacity mod shards] shards
    hold one extra block.  Raises [Invalid_argument] if [capacity < 1],
    [shards < 1], or [capacity < shards] (every shard must hold at
    least one block). *)

val capacity : t -> int
val resident : t -> int

val shards : t -> int
(** Number of independent LRU domains. *)

val shard_of_block : t -> block -> int
(** The shard index a block maps to — deterministic, version-stable. *)

val shard_lookups : t -> int array
(** Per-shard residency-table probe counts (see {!lookups}); index [k]
    is shard [k].  Resets to zeros on {!reshard}. *)

val shard_residents : t -> int array
val shard_capacities : t -> int array

val lookup_balance : int array -> float
(** Max/mean skew of a per-shard lookup vector: [1.0] is perfectly
    balanced, [n] means all probes landed on one of [n] shards.
    Degenerate inputs (single shard, all-zero) read as [1.0]. *)

val shard_lookup_balance : t -> float
(** [lookup_balance (shard_lookups t)]. *)

val reshard : t -> shards:int -> unit
(** Repartition the pool into [shards] domains.  Residency is dropped
    (equivalent to {!flush} — cost-only, results unaffected), every
    outstanding {!handle} is invalidated, and per-shard lookup
    counters restart at zero ({!lookups} stays monotone: pre-reshard
    probes are retired into the pool total).  Raises
    [Invalid_argument] on [shards < 1] or [capacity < shards]. *)

val fresh_file : t -> int
(** Allocate a new file id (heap, index, or spill space). *)

val classify : t -> file:int -> Fault.file_class -> unit
(** Record a file's class (heap / index / spill) so the fault injector
    can scope faults.  Backing stores call this at creation. *)

val set_injector : t -> Fault.t option -> unit
(** Attach (or detach) a fault injector.  With [None] — the default —
    every access behaves and costs exactly as an injector-free pool.
    With an injector, reads and writes may raise {!Fault.Injected}
    after being charged; a faulted read does not make the block
    resident. *)

val injector : t -> Fault.t option

val set_metrics : t -> Rdb_util.Metrics.t option -> unit
(** Attach (or detach) a metrics registry.  Observation-only: with a
    registry attached the pool counts hits / misses / evictions /
    writes / faults per file label — and, when [shards > 1], the same
    events per shard under [pool.shard<k>.*] — but charges, residency
    and results are identical to an unobserved pool. *)

val metrics : t -> Rdb_util.Metrics.t option

val name_file : t -> file:int -> string -> unit
(** Give a file a human label ("table:employees", "index:emp_dept")
    used in per-file metric names.  Unnamed files show as "file<N>". *)

val touch : t -> Cost.t -> block -> unit
(** Access a block for reading: charge logical on hit, physical on
    miss (and make it resident, evicting if full). *)

val touch_read : t -> Cost.t -> block -> [ `Hit | `Miss ]
(** [touch], reporting whether the access was a hit or a physical
    read.  Checksummed stores verify page integrity on [`Miss] (a cold
    read is the moment corruption would be observed). *)

(** {1 Lookup handles} — repeat-access fast path.

    Every [touch_read] probes the residency hash table; a fetcher
    touching the same page many times in a row pays that probe each
    time even though nothing moved.  A {!handle}
    remembers the LRU node a lookup resolved to, and {!retouch}
    replays the {e hit} path through it — same LRU bump, same logical
    charge to the meter and the global meter, same metrics events,
    same fault-injector stream — while skipping the probe.  Handles
    are invalidated conservatively by {e any} eviction in the owning
    shard ([retouch] returns [false]; redo the full lookup) — evictions
    in other shards leave them valid — so holding one is always safe,
    and worth it across a short window such as one scan step. *)

type handle

val touch_read_h : t -> Cost.t -> block -> [ `Hit | `Miss ] * handle
(** Exactly [touch_read], also returning a handle for the (now
    resident) block.  No handle is produced on a faulted read (the
    exception propagates before residency). *)

val retouch : t -> Cost.t -> handle -> bool
(** Re-access the handled block as a hit without probing the table.
    [false] if an eviction in the block's shard invalidated the handle
    since it was made (nothing charged; caller falls back to
    [touch_read_h]).  May raise {!Fault.Injected} exactly as a hit
    access would. *)

val lookups : t -> int
(** Residency-table probes performed so far, summed across shards and
    monotone across {!reshard} (charged read and write accesses only;
    [retouch] does not probe).  Distinct from charged accesses: this
    is the in-memory bookkeeping a {!handle} saves, also exported per
    file as the [pool.lookups] metric. *)

val write : t -> Cost.t -> block -> unit
(** Access a block for writing: charges a block write; the block
    becomes resident. *)

val is_resident : t -> block -> bool

val evict_file : t -> int -> unit
(** Drop all resident blocks of a file (file destruction). *)

val flush : t -> unit
(** Empty the pool (cold-cache experiments). *)

val global_meter : t -> Cost.t
(** Pool-lifetime accumulated charges (all meters combined). *)

val manifest : t -> Manifest.t
(** The durable metadata manifest rooted at this pool ({!Manifest}).
    Always present; crash teardown ({!flush} of residency plus
    volatile-state resets) leaves it intact — it is the record
    restart recovery reads. *)
