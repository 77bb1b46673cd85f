(* The one generic step driver.

   Every execution loop in the system — Retrieval quanta, Uscan/Jscan
   completion runs, Repair copy runs, the static baselines, Session
   grants — settles its steps through this module.  The driver owns the
   mechanics every loop used to reimplement: consecutive-fault counting
   and the dispatch to a caller-supplied fault policy.  It holds only
   that policy state: the step function it pumps is an argument, and a
   caller that takes one step itself settles it with [settle].
   Policies stay with the callers (retrieval quarantines and falls
   back; union machinery abandons; repair gives up) because *what* to
   do about a fault is strategy knowledge — *when* to ask is not. *)

type decision =
  | Retry
  | Absorb
  | Stop

type policy = { on_fault : Rdb_storage.Fault.failure -> consec:int -> decision }

type t = {
  policy : policy;
  mutable consec : int;  (* consecutive faults without a successful step *)
}

let make policy = { policy; consec = 0 }

type progress =
  | More
  | Exhausted
  | Stopped of Rdb_storage.Fault.failure

let settle d = function
  | Scan.Deliver _ | Scan.Continue ->
      d.consec <- 0;
      More
  | Scan.Done ->
      d.consec <- 0;
      Exhausted
  | Scan.Failed f -> (
      d.consec <- d.consec + 1;
      match d.policy.on_fault f ~consec:d.consec with
      | Retry -> More
      | Absorb ->
          d.consec <- 0;
          More
      | Stop ->
          d.consec <- 0;
          Stopped f)

(* A row reaches the consumer before the next step, and so before the
   policy settles a later fault: a fallback re-covering it would
   otherwise redeliver.  [Done] and [Failed] end the pump once settled;
   the first step is unconditional. *)
let pump d ~max_steps step ~on_row =
  let rec loop n =
    match step () with
    | (Scan.Done | Scan.Failed _) as s -> settle d s
    | s ->
        (match s with Scan.Deliver (rid, row) -> on_row rid row | _ -> ());
        let p = settle d s in
        if n < max_steps then loop (n + 1) else p
  in
  loop 1

let drain d step ~on_row =
  let rec loop () =
    match pump d ~max_steps:max_int step ~on_row with
    | More -> loop ()
    | Exhausted -> Ok ()
    | Stopped f -> Error f
  in
  loop ()

(* Cost-clocked grant loop: the shape Session used to duplicate for
   queries and repairs.  The clock is read once per iteration (the
   entry reading serves the first) and that one reading is what [stop]
   and the budget see; all three bounds are checked before each
   iteration (a spent budget grants zero steps), and [steps] counts
   [step] invocations — pump calls, not scan steps. *)
let clocked_loop ~spent ~budget ~max_steps ~stop ~step =
  let start = spent () in
  let rec loop now steps =
    if stop now || now -. start >= budget || steps >= max_steps then ()
    else
      match step () with
      | `Continue -> loop (spent ()) (steps + 1)
      | `Finished -> ()
  in
  loop start 0
