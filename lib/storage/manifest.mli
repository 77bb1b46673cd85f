(** Durable metadata manifest: the state that survives a process crash.

    The crash model (DESIGN.md §15) splits the system into volatile
    state — buffer-pool residency, open cursors, scheduler queues, the
    feedback store, health counters, metrics — and durable state: heap
    page contents, committed index trees, and this manifest.  The
    manifest is the small root record a real engine would keep on disk
    and fsync at commit points; here it is an in-memory structure that
    survives by convention (a crash tears down everything {e except}
    heap/tree contents and the manifest).

    It records three things:

    + {b Committed indexes} — which tree file is the committed version
      of each (table, index).  Updated atomically when an index build
      or rebuild commits.
    + {b Two-phase rebuilds} — every online rebuild registers a
      [Building] record naming its side tree file before copying a
      single row, and flips it to [Committed] in the same step as the
      tree swap.  A crash mid-rebuild therefore leaves a detectable
      uncommitted orphan, never a half-swapped tree; recovery discards
      the side tree and flips the record to [Aborted].
    + {b Quarantine verdicts} — each structure's quarantine, with its
      backoff escalation count, persists so a restart cannot silently
      trust a structure the previous incarnation proved dead.

    Manifest writes are modelled as free (a handful of metadata bytes
    next to multi-block data operations) and charge no meter, which
    keeps crash-free runs byte-identical to a build without this
    module.  All renderings are sorted and deterministic. *)

type rebuild_state = Building | Committed | Aborted

type rebuild = {
  rb_id : int;  (** dense, in registration order *)
  rb_table : string;
  rb_index : string;
  rb_side_file : int;  (** pool file id of the side tree *)
  mutable rb_state : rebuild_state;
}

type t

val create : unit -> t
(** Empty manifest, epoch 0. *)

val begin_epoch : t -> int
(** Bump and return the epoch counter — recovery stamps each restart. *)

(** {1 Committed indexes} *)

val commit_index : t -> table:string -> index:string -> file:int -> unit
(** Record [file] as the committed tree of [(table, index)] — the
    atomic commit point of an index build or rebuild swap. *)

(** {1 Two-phase rebuilds} *)

val begin_rebuild : t -> table:string -> index:string -> side_file:int -> int
(** Register a [Building] record for a rebuild copying into
    [side_file]; returns its [rb_id].  Must be called before the first
    copied row so a crash at any later step boundary finds the
    orphan. *)

val commit_rebuild : t -> int -> unit
(** Flip to [Committed] — called in the same step as the tree swap, so
    the pair is atomic under the step-boundary crash model. *)

val abort_rebuild : t -> int -> unit
(** Flip to [Aborted] (failed rebuild, or recovery discarding an
    orphan).  Idempotent on an already-aborted record. *)

val orphans : t -> rebuild list
(** Rebuild records still [Building] — after a crash, exactly the
    rebuilds that died mid-copy — in [rb_id] order. *)

(** {1 Quarantine verdicts} *)

val record_quarantine :
  t -> table:string -> structure:string -> escalations:int -> unit
(** Persist (or update) a quarantine verdict with its backoff
    escalation count. *)

val clear_quarantine : t -> table:string -> structure:string -> unit
(** The structure was proven healthy (probe success / rebuild). *)

val quarantines : t -> (string * string * int) list
(** Every persisted verdict as [(table, structure, escalations)],
    sorted. *)

val to_string : t -> string
(** Deterministic rendering (sorted sections) — the recovery
    idempotence property compares these before/after a second
    recovery pass. *)
