(** Hashed in-memory bitmaps [Babb79].

    A fixed-size bit array addressed by RID hash.  Used as the filter
    for spilled RID lists during Jscan (§6): membership answers are
    one-sided — [false] means definitely absent, [true] means possibly
    present — so a filtered candidate stream keeps every true match and
    admits a tunable rate of false positives that the final-stage
    restriction evaluation weeds out. *)

open Rdb_data

type t

val create : bits:int -> t
(** [bits] rounded up to a multiple of 8; at least 64. *)

val bits : t -> int
val add : t -> Rid.t -> unit
val mem : t -> Rid.t -> bool
val population : t -> int
(** Number of set bits. *)

val expected_false_positive_rate : t -> float
(** For the current population, assuming uniform hashing (two hash
    probes per RID). *)
