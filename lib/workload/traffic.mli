(** Seeded multi-query traffic for the session scheduler.

    Generates a deterministic arrival sequence of mixed query templates
    against the ORDERS dataset: host-variable range sweeps, point
    lookups on the Zipf-skewed columns, covered ORs (union tactic),
    multi-index ANDs (Jscan), and fast-first LIMIT probes.  Each spec
    is plain data — a predicate plus bindings — so this library stays
    below [rdb_core]; the scheduler's callers turn specs into
    retrieval requests. *)

open Rdb_engine

type spec = {
  label : string;
  pred : Predicate.t;
  env : Predicate.env;
  order_by : string list;
  limit : int option;
  fast_first : bool;  (** hint: run under the fast-first goal *)
}

type arrival = {
  spec : spec;
  arrive_at : int;  (** scheduler grant tick at which the query arrives *)
  quota : float option;
      (** declared admission-ordering quota (heavy-tailed); [None] =
          unbounded work declared *)
  deadline : float option;  (** cost deadline the submitter attaches, if any *)
}

val orders_mix : seed:int -> count:int -> unit -> spec list
(** [count] specs in a seeded shuffled arrival order, cycling through
    the five templates with seeded parameters.  Parameters range over
    the {!Datasets.orders} columns: 2000 customers, 500 products, 365
    days, prices below 5000. *)

val storm : ?waves:int -> seed:int -> count:int -> unit -> arrival list
(** A deterministic overload storm: [count] arrivals over the same five
    templates, in arrival order.  Arrival ticks advance by Zipf-drawn
    gaps (mostly 0 — bursts — with a heavy tail of quiet stretches);
    declared quotas follow a Zipf(1.0) mix: mostly small bounded
    quotas, a heavy tail of large or unbounded declarations; 25
    percent of queries carry a tight-skewed cost deadline, including
    some that are 0 (timed out on arrival).  [waves] (default 1)
    splits the count into that many equal fronts separated by a
    64-tick quiet stretch — the thousand-session storm shape; at the
    default the stream is byte-identical to a single front.
    Everything flows from [seed]: equal seeds give identical storms. *)
