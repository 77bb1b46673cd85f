(** The one generic cursor driver.

    All drive loops — retrieval quanta, union/joint-scan completion
    runs, online repair, session grants — pump {!Scan.cursor}s through
    this module, so consecutive-fault bookkeeping and the
    fault-policy dispatch exist exactly once.  Callers keep the
    policy: what a fault *means* (retry with backoff, quarantine the
    index, fall back to Tscan, abandon the union, fail the repair) is
    strategy knowledge; counting and asking is not. *)

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

val make : Scan.cursor -> policy -> t

type progress =
  | More  (** keep pumping *)
  | Exhausted  (** the cursor completed *)
  | Stopped of Rdb_storage.Fault.failure  (** the policy gave up *)

val pump : t -> budget:float -> on_rows:(Scan.batch -> unit) -> progress
(** One batch: pull [next_batch ~budget], hand the whole batch to
    [on_rows] {e before} running the fault policy (rows delivered
    ahead of a fault must reach the consumer before any fallback
    could redeliver them), then settle the batch status. *)

val drain : t -> budget:float -> on_rows:(Scan.batch -> unit) -> (unit, Rdb_storage.Fault.failure) result
(** Pump to completion.  [Error f] when the policy stopped. *)

val clocked_loop :
  spent:(unit -> float) ->
  budget:float ->
  max_steps:int ->
  stop:(unit -> bool) ->
  step:(unit -> [ `Continue | `Finished ]) ->
  unit
(** The cost-clocked grant loop (session quanta): invoke [step] until
    [stop ()], until charged cost since entry reaches [budget], or
    until [max_steps] invocations.  All bounds are checked before
    each iteration — an already-spent budget grants zero steps. *)
