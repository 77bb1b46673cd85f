(** Tactic combinators — LCF-style tacticals over step tactics (§2–§4,
    DESIGN.md §17).

    The paper's strategies are {e compositions}: competition arbitrates
    rivals, fast-first chains into a total-time finish, degradation
    ladders try one recourse after another.  This module makes those
    compositions first-class: a {!t} is a resumable quantum function
    (each call advances the strategy by one {!Scan.step}), and the
    combinators assemble quantum functions the way THEN / ORELSE
    assemble LCF tactics.  {!Rdb_core.Retrieval} builds every
    multi-phase machine from these; the {!Policy} sub-algebra plays the
    same role for {!Driver} fault policies.

    Laws below are stated over the step stream a tactic produces when
    pumped to completion.  All combinators preserve the step-protocol
    contract: [Done] is idempotent, and a tactic yielding [Failed]
    leaves its position unchanged so the next call retries the same
    access. *)

open Rdb_storage

type t = unit -> Scan.step
(** One quantum of work.  The existing step functions ([Tscan.step],
    [Sscan.step], …) are tactics as-is, and {!Driver} settles their
    steps. *)

val halt : t
(** Yields [Done] forever.  Identity for {!then_}: [then_ t (fun () ->
    halt)] delivers exactly the rows of [t] (one extra [Continue]
    quantum at the seam). *)

val then_ : t -> (unit -> t) -> t
(** [then_ first next]: step [first] until it yields [Done]; that
    quantum builds the successor by running [next ()] (side effects —
    e.g. constructing a final stage from the first phase's outcome —
    happen here, exactly once) and yields [Continue]; every later
    quantum steps the successor.  Laws: every row of [first] precedes
    every row of the successor; [first]'s [Done] is consumed as one
    [Continue] (a phase switch is a quantum of work, never a lost
    row); faults from either phase surface unchanged. *)

val orelse : t -> (Fault.failure -> t) -> t
(** [orelse tac handler]: step [tac] until its first [Failed f]; that
    quantum switches permanently to [handler f] and yields [Continue].
    Laws: every row [tac] produced before its fault stands (mirroring
    the delivered-rows invariant of retrieval's Tscan fallback —
    compose with {!distinct} when the arms can overlap); exactly one
    switch ever happens; failures from the handler propagate. *)

val race :
  choose:(unit -> [ `Left | `Right ]) -> left:t -> right:t -> t
(** [race ~choose ~left ~right]: each quantum, exactly one arm
    advances — the one [choose ()] names (the paper's §3 proportional
    competition: the predicate compares charged costs).  The advancing
    arm's step is the race's step, so [Done] from the stepped arm ends
    the race and a fault is blamed on the arm that faulted.  Arms
    self-retire by flipping the state [choose] reads. *)

val preempt : (unit -> t option) -> t -> t
(** [preempt probe tac]: each quantum, ask [probe ()] first; the first
    [Some successor] switches permanently to the successor (the
    mid-flight takeover of §7's index-only tactic: a finished
    background replaces the foreground the moment its sure list wins).
    Until then, step [tac].  After the switch [probe] is never
    consulted again. *)

val limit : int -> t -> t
(** [limit n tac]: deliver at most [n] rows, then yield [Done] without
    stepping [tac] further.  Raises [Invalid_argument] if [n < 0].
    [limit max_int] is the identity.  The static baselines'
    [?limit] ({!Rdb_core.Static_optimizer}, {!Rdb_core.Static_jscan}). *)

val distinct : Rdb_rid.Rid_set.t -> t -> t
(** [distinct seen tac]: suppress (as [Continue]) any [Deliver] whose
    RID is already in [seen], recording delivered RIDs as they pass.
    [seen] is an exact bitset ({!Rdb_rid.Rid_set}), so the per-row test
    neither hashes nor compares a record.
    Makes overlapping {!orelse} arms safe: the fallback arm re-covers
    the faulted arm's ground without redelivering.  Identity when [tac]
    never repeats a RID and [seen] starts empty.  Every retrieval
    cursor's composed tactic runs under one [distinct]: [seen] is the
    cursor's delivered-RID set, which its Tscan fallback, final stage,
    and foreground buffer caps all read. *)

(** Fault policies as composable ladders.  A {!Policy.rung} is one
    recourse that either decides a fault or declines it; {!Policy.stack}
    asks its rungs in order until one decides — retrieval's ladder is
    literally [retry ⇒ quarantine ⇒ abort-heap ⇒ tscan-fallback].
    Rung names double as the EXPLAIN [policy:] line via
    {!Policy.describe}. *)
module Policy : sig
  type rung

  val rung :
    name:string ->
    (Fault.failure -> consec:int -> Driver.decision option) ->
    rung
  (** One recourse: [None] declines (the next rung is asked), [Some d]
      decides.  A rung's side effects (quarantine, fallback, penalty
      charges) must happen inside the deciding call — exactly one rung
      decides per fault. *)

  val stack : rung list -> rung
  (** First-deciding-wins, left to right; names concatenate for
      {!describe}.  Raises [Invalid_argument] on the empty list. *)

  val describe : rung -> string
  (** Rung names joined with [" ⇒ "] — construction is effect-free, so
      describing a stack never runs a recourse. *)

  val retry_transient : rung
  (** Decides [Retry] for transient faults (unboundedly — the faulted
      access keeps its position), declines everything else.  The
      Uscan/Jscan completion-run rung. *)

  val bounded_retry :
    limit:int -> penalize:(Fault.failure -> consec:int -> unit) -> rung
  (** Decides [Retry] for a transient fault while [consec <= limit],
      running [penalize] first (cost-meter backoff charges and retry
      trace); declines persistent faults and exhausted budgets.  Named
      ["retry(<limit>)"] . *)

  val absorb_with : name:string -> (Fault.failure -> unit) -> rung
  (** Always decides [Absorb] after running the action — which must
      redirect the underlying scan (quarantine / abandon / fall back)
      so pumping can continue. *)

  val give_up : name:string -> rung
  (** Always decides [Stop]: the terminal rung of ladders with no
      recourse left (repair against unreadable ground truth). *)

  val seal :
    ?observe:(Fault.failure -> consec:int -> unit) ->
    rung ->
    Driver.policy
  (** Close a ladder into a driver policy.  [observe] runs first on
      every fault (the fault-detected trace emission).  A fault no rung
      decides raises [Invalid_argument]: ladders must be total for the
      faults their strategy can produce. *)
end
