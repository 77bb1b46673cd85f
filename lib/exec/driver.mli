(** The one generic cursor driver.

    All drive loops — retrieval quanta, union/joint-scan completion
    runs, online repair, session grants — settle their steps through
    this module (pumping a {!Scan.cursor}, or one step at a time), so
    consecutive-fault bookkeeping and the fault-policy dispatch exist
    exactly once.  Callers keep the policy: what a fault *means*
    (retry with backoff, quarantine the index, fall back to Tscan,
    abandon the union, fail the repair) is strategy knowledge;
    counting and asking is not. *)

type decision =
  | Retry  (** pump again; the faulted step will be re-attempted *)
  | Absorb
      (** the policy changed course (quarantined / fell back /
          abandoned); the cursor now reflects the new course — keep
          pumping and reset the consecutive-fault count *)
  | Stop  (** give up; surface the failure to the caller *)

type policy = { on_fault : Rdb_storage.Fault.failure -> consec:int -> decision }
(** [consec] is the number of consecutive faults including this one
    (any successful step in between resets the run to zero). *)

type t
(** The policy and its consecutive-fault count — nothing else: the
    cursor is an argument of {!pump}, and a caller that takes one step
    itself hands the outcome to {!settle}. *)

val make : policy -> t

type progress =
  | More  (** keep pumping *)
  | Exhausted  (** the cursor completed *)
  | Stopped of Rdb_storage.Fault.failure  (** the policy gave up *)

val settle : t -> steps:int -> Scan.status -> progress
(** Settle one batch's status: [More] and [Exhausted] reset the
    consecutive-fault count; [Faulted f] counts the fault (a batch of
    more than one step first resets the count — a step before the
    fault succeeded) and asks the policy: [Retry] reads [More], [Absorb]
    resets the count and reads [More], [Stop] resets it and reads
    [Stopped f].  A caller stepping one step at a time settles each
    step as a batch of [~steps:1]. *)

val pump : t -> Scan.cursor -> budget:float -> on_rows:(Scan.batch -> unit) -> progress
(** One batch: pull [next_batch ~budget], hand the whole batch to
    [on_rows] {e before} running the fault policy (rows delivered
    ahead of a fault must reach the consumer before any fallback
    could redeliver them), then {!settle} the batch status. *)

val drain :
  t ->
  Scan.cursor ->
  budget:float ->
  on_rows:(Scan.batch -> unit) ->
  (unit, Rdb_storage.Fault.failure) result
(** Pump to completion.  [Error f] when the policy stopped. *)

val clocked_loop :
  spent:(unit -> float) ->
  budget:float ->
  max_steps:int ->
  stop:(float -> bool) ->
  step:(unit -> [ `Continue | `Finished ]) ->
  unit
(** The cost-clocked grant loop (session quanta): invoke [step] until
    [stop now] holds, until charged cost since entry reaches [budget],
    or until [max_steps] invocations.  [spent] is read once per
    iteration and [now] is that reading, so a caller's own cost bound
    tests the same value the budget does.  All bounds are checked
    before each iteration, in that order — an already-spent budget
    grants zero steps. *)
