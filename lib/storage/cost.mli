(** Cost meters.

    Every scan strategy carries a meter; the buffer pool charges it on
    each block access.  The dynamic optimizer's competition criteria
    (§3, §6) compare meter readings and projections, so the *weights*
    define the system's notion of cost: a physical (disk) read is the
    unit, a buffered (logical) read is ~100x cheaper, per-record CPU
    work cheaper still.  These match the paper's observation that index
    scans are "typically 10-100 times cheaper" than record fetching. *)

type weights = {
  physical_read : float;
  logical_read : float;
  block_write : float;
  cpu_op : float;
}

val default_weights : weights

type t

val create : unit -> t

val charge_physical : t -> unit
val charge_logical : t -> unit
val charge_write : t -> unit
val charge_cpu : t -> int -> unit
(** [charge_cpu m n] adds [n] CPU operations (per-record comparisons,
    filter probes...). *)

val physical_reads : t -> int
val logical_reads : t -> int
val block_writes : t -> int
val cpu_ops : t -> int

val total : t -> float
(** Cost weighted by {!default_weights}. *)

val total3 : t -> t -> t -> float
(** [total3 a b c] is [total a +. total b +. total c], bit for bit, in
    one call: the clock of a retrieval that keeps three meters. *)

val add : t -> t -> unit
(** [add dst src] accumulates [src] into [dst] (used to roll per-scan
    meters up into a retrieval-level meter). *)

val snapshot : t -> t
(** Independent copy. *)

val since : t -> t -> float
(** [since now before] is [total now -. total before]: cost spent
    between two snapshots. *)

val pp : Format.formatter -> t -> unit
