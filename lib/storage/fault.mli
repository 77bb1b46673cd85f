(** Deterministic fault injection.

    A fault injector turns the buffer pool's charge points into fault
    points: every block access that costs something can also fail.
    All randomness flows from a {!Rdb_util.Prng} seed — two runs with
    the same plan observe the same faults at the same accesses — and a
    pool without an injector behaves (and costs) exactly as before.

    Fault taxonomy:

    - {e transient} read faults: a physical read fails but a retry may
      succeed.  Fired probabilistically on buffer-pool misses only
      (a resident block needs no I/O), scoped to file classes.
    - {e persistent} faults: every access to a listed file fails
      (a dead disk / unreadable index).  Never retried successfully.
    - {e corruption}: a listed block's stored checksum is scrambled
      once; lazy verification on the next cold read detects the
      mismatch and fails the access until the page is rewritten —
      heap pages via [Heap_file.rewrite_corrupt_pages] (the
      [REPAIR TABLE] exit), index nodes via the online rebuild.
    - {e spill exhaustion}: spill-store writes beyond a budget fail
      ([Spill_full]), modelling temp-space exhaustion. *)

type file_class = Heap | Index | Spill | Other

type kind =
  | Transient  (** retry may succeed *)
  | Persistent  (** file is dead; retry never helps *)
  | Corrupt  (** checksum mismatch on a cold read *)
  | Spill_full  (** spill-store write budget exhausted *)

type failure = {
  file : int;
  index : int;  (** block index within the file *)
  class_ : file_class;
  kind : kind;
}

exception Injected of failure
(** Raised at the faulted block access, after the access has been
    charged to the meters (the I/O attempt is paid for whether or not
    it succeeds).  Callers convert this into a structured outcome at
    the scan-step boundary; it never crosses a retrieval API. *)

type plan = {
  seed : int;
  transient_read_rate : float;  (** per-physical-read probability *)
  transient_classes : file_class list;
  persistent_files : int list;
  corrupt_blocks : (int * int) list;  (** (file, index) pairs *)
  spill_write_budget : int option;  (** max spill block writes *)
  fail_at_access : (int * int) list;
      (** deterministic schedule: [(f, n)] fires a transient read fault
          on exactly the [n]-th read access (1-based, hits and misses
          both counted) to file [f] — lets tests place a fault at a
          precise point instead of tuning probabilities.  To force a
          retrieval's retry-exhaustion escalation, schedule 9 (its
          retry limit, 8, plus one) consecutive access numbers: each
          retry re-accesses the file and advances the counter. *)
}

val null_plan : plan
(** No faults ever (seed 0, zero rate, empty scopes). *)

val plan :
  ?transient_read_rate:float ->
  ?transient_classes:file_class list ->
  ?persistent_files:int list ->
  ?corrupt_blocks:(int * int) list ->
  ?spill_write_budget:int ->
  ?fail_at_access:(int * int) list ->
  seed:int ->
  unit ->
  plan
(** Defaults: rate 0.0, classes [[Heap; Index; Spill]], no persistent
    files, no corruption, unlimited spill, no scheduled faults.  Raises
    [Invalid_argument] on a rate outside [0,1] or a scheduled access
    number below 1. *)

type t

val create : plan -> t

val on_read : t -> cls:file_class -> file:int -> index:int -> hit:bool -> unit
(** Called by the pool on every read access, after charging.
    Persistent faults fire on any access to a listed file; transient
    faults fire only on misses ([hit = false]), with probability
    [transient_read_rate], within the configured scope.
    @raise Injected on a fault. *)

val on_write : t -> cls:file_class -> file:int -> index:int -> unit
(** Called by the pool on every block write, after charging.
    Persistent files reject writes too; spill-class writes count
    against [spill_write_budget] and fail with [Spill_full] once it is
    spent.  Transient faults never fire on writes (a write retry after
    the caller mutated its state is not replayable).
    @raise Injected on a fault. *)

val take_corruption : t -> file:int -> index:int -> bool
(** [true] exactly once for each planned corrupt block: the caller
    must scramble that block's stored checksum so subsequent
    verification genuinely fails.  (Firing once matters: scrambling is
    an involution, so a second application would restore the page.) *)

val is_transient : failure -> bool

(** {1 Stats} — cumulative injected-fault counters, for benches. *)

val read_accesses : t -> file:int -> int
(** Read accesses observed on [file] so far.  Counted only while the
    plan carries a [fail_at_access] schedule (the counter exists for
    the schedule); 0 otherwise. *)

val injected_transient : t -> int
val injected_persistent : t -> int
val injected_corrupt : t -> int
val injected_spill : t -> int
val injected_total : t -> int

val class_name : file_class -> string

val describe : failure -> string
(** e.g. ["transient read fault on index file 3 block 17"]. *)

(** {1 Checksums} — order-sensitive integer mixing for page contents.
    Not cryptographic; detects the injector's deliberate scrambling
    and any accidental divergence between content and stored crc. *)

val crc_init : int
val crc_int : int -> int -> int
val crc_bytes : int -> string -> int
val crc_scramble : int -> int
(** Involutive corruption of a stored checksum. *)
