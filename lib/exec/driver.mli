(** The one generic step driver.

    All drive loops — retrieval quanta, union/joint-scan completion
    runs, online repair, the static baselines, session grants — settle
    their steps through this module (pumping a step function, or one
    step at a time), so consecutive-fault bookkeeping and the
    fault-policy dispatch exist exactly once.  Callers keep the policy:
    what a fault *means* (retry with backoff, quarantine the index,
    fall back to Tscan, abandon the union, fail the repair) is strategy
    knowledge; counting and asking is not. *)

open Rdb_data

type decision =
  | Retry  (** step again; the faulted step will be re-attempted *)
  | Absorb
      (** the policy changed course (quarantined / fell back /
          abandoned); the step function now reflects the new course —
          keep stepping and reset the consecutive-fault count *)
  | Stop  (** give up; surface the failure to the caller *)

type policy = { on_fault : Rdb_storage.Fault.failure -> consec:int -> decision }
(** [consec] is the number of consecutive faults including this one
    (any successful step in between resets the run to zero). *)

type t
(** The policy and its consecutive-fault count — nothing else: the
    step function is an argument of {!pump}, and a caller that takes
    one step itself hands the outcome to {!settle}. *)

val make : policy -> t

type progress =
  | More  (** keep stepping *)
  | Exhausted  (** the step function completed *)
  | Stopped of Rdb_storage.Fault.failure  (** the policy gave up *)

val settle : t -> Scan.step -> progress
(** Settle one step: [Deliver] and [Continue] reset the
    consecutive-fault count and read [More]; [Done] resets it and reads
    [Exhausted]; [Failed f] counts the fault and asks the policy:
    [Retry] reads [More], [Absorb] resets the count and reads [More],
    [Stop] resets it and reads [Stopped f]. *)

val pump :
  t ->
  max_steps:int ->
  (unit -> Scan.step) ->
  on_row:(Rid.t -> Row.t -> unit) ->
  progress
(** Step and {!settle} until a step is [Done] or [Failed], or
    [max_steps] steps ran (the first step always runs).  Each delivered
    row reaches [on_row] before the next step, so rows delivered ahead
    of a fault reach the consumer before any fallback could redeliver
    them.  A faulted step ends the pump once settled, whatever the
    policy decided: a retried or absorbed fault reads [More]. *)

val drain :
  t ->
  (unit -> Scan.step) ->
  on_row:(Rid.t -> Row.t -> unit) ->
  (unit, Rdb_storage.Fault.failure) result
(** {!pump} with no step cap until the step function is exhausted.
    [Error f] when the policy stopped. *)

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
