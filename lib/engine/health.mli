(** Per-structure health-state machine.

    Degraded states must be exits, not absorbing states: PR 1's fault
    policies quarantine a dead index for the life of the database,
    silently forcing every later query onto the Tscan floor.  This
    registry gives each storage structure (the heap, each index) an
    explicit lifecycle

    {v
      Healthy --checksum mismatch--> Suspect
      Suspect --repeated mismatch--> Quarantined
      Healthy/Suspect --retry exhaustion--> Quarantined
      Quarantined --backoff elapsed--> (re-probe: estimation descent)
          probe ok  --> Healthy
          probe dead--> Quarantined (backoff escalated)
      any --rebuild started--> Rebuilding
      Rebuilding --rebuild ok--> Healthy  (budgets reset)
      Rebuilding --rebuild failed--> Quarantined (backoff escalated)
    v}

    so every quarantine carries a recovery path: either the timed
    re-probe or an online rebuild.

    All timing is in {e cost units} on the caller-supplied [now] clock
    (by convention [Cost.total (Buffer_pool.global_meter pool)]) — no
    wall clock, so backoff is deterministic and scales with how busy
    the database actually is.

    The module is observation-free by design: transition functions
    return the {!transition} that occurred (if any) and the caller —
    which lives above the exec layer — turns it into trace events and
    metrics. *)

type state = Healthy | Suspect | Quarantined | Rebuilding

val state_to_string : state -> string

type config = {
  suspect_threshold : int;
      (** checksum mismatches tolerated in [Suspect] before the
          structure is quarantined (>= 1; 1 quarantines immediately) *)
  backoff_budget : float;
      (** cost units that must elapse on the caller's clock before a
          quarantined structure may be re-probed *)
  backoff_factor : float;
      (** budget multiplier on every failed probe / failed rebuild
          (>= 1), so a persistently dead structure is probed ever more
          rarely *)
}

val default_config : config
(** threshold 2, budget 400.0 cost units, factor 2.0. *)

type transition = {
  tr_structure : string;
  tr_from : state;
  tr_to : state;
  tr_reason : string;
}

type t

val create : ?config:config -> unit -> t
val configure : t -> config -> unit
(** Replace the config (tests tighten backoff budgets).  Existing
    entries keep their current escalated budgets. *)

val state : t -> string -> state
(** [Healthy] for a structure never reported. *)

(** {1 Fault-driven transitions}

    Each returns the transition performed, or [None] when the event
    changed no state (it may still have escalated a backoff). *)

val record_corrupt : t -> now:float -> string -> transition option
(** A checksum mismatch: [Healthy -> Suspect]; the
    [suspect_threshold]-th mismatch escalates to [Quarantined]. *)

val record_dead : t -> now:float -> string -> transition option
(** Retry exhaustion / persistent fault: [-> Quarantined] with the
    re-probe due after the current backoff budget.  On an already
    quarantined structure (a failed re-probe) the budget escalates by
    [backoff_factor] and the due time moves out; no state change. *)

val mark_healthy : t -> string -> transition option
(** A probe succeeded: [-> Healthy], counters and budgets reset. *)

val begin_rebuild : t -> string -> transition option
(** [-> Rebuilding]; the structure is unusable while rebuilding. *)

val end_rebuild : t -> now:float -> ok:bool -> string -> transition option
(** [ok = true]: [-> Healthy] with budgets reset.  [ok = false]:
    [-> Quarantined] with the backoff escalated. *)

(** {1 Durable verdicts and crash recovery}

    The registry itself is volatile — a crash loses every counter —
    but quarantine {e verdicts} are durable facts about storage, so an
    observer (wired by [Table] to the pool's manifest) is told
    whenever a structure is quarantined (with its current backoff
    escalation count) or proven healthy again.  Restart recovery
    replays the persisted verdicts back in through
    {!restore_quarantined}. *)

type verdict =
  | Verdict_quarantined of { escalations : int }
      (** quarantined, with the number of backoff escalations so far *)
  | Verdict_cleared  (** proven healthy (probe success / rebuild) *)

val set_observer : t -> (string -> verdict -> unit) -> unit
(** Install the durable-verdict observer (at most one; later calls
    replace).  Called synchronously on every quarantine, escalation,
    and clear — observation-only, it must not call back into [t]. *)

val reset : t -> unit
(** Crash teardown: drop every entry (states, counters, budgets).  The
    observer survives — it is wiring, not state. *)

val restore_quarantined : t -> now:float -> escalations:int -> string -> unit
(** Recovery: reconstruct a quarantined entry from a persisted
    verdict.  The backoff budget is re-derived as
    [backoff_budget *. backoff_factor ** escalations] and the next
    probe is due a full budget after [now] — exactly the state the
    pre-crash registry would have reached by the same escalations.
    Raises [Invalid_argument] on a negative count. *)

(** {1 Queries} *)

val usable : t -> now:float -> string -> bool
(** May a plan consider this structure?  [Healthy]/[Suspect]: yes
    ([Suspect] data is still served; checksums catch lies).
    [Rebuilding]: no.  [Quarantined]: only once the backoff budget has
    elapsed — that planning attempt {e is} the re-probe. *)

val probe_due : t -> now:float -> string -> bool
(** [Quarantined] and past the due time. *)

type status = {
  structure : string;
  st : state;
  probe_in : float option;  (** cost units until re-probe; Quarantined only *)
  transitions : int;
}

val report : t -> now:float -> status list
(** Every known structure, sorted by name. *)

val status_to_string : status -> string
