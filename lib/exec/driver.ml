(* The one generic cursor driver.

   Every execution loop in the system — Retrieval quanta, Uscan/Jscan
   completion runs, Repair batches, Session grants — settles its steps
   through this module.  The driver owns the mechanics every loop used
   to reimplement: consecutive-fault counting and the dispatch to a
   caller-supplied fault policy.  It holds only that policy state: the
   cursor it pumps is an argument, and a caller that takes one step
   itself settles it with [settle].  Policies stay with the callers
   (retrieval quarantines and falls back; union machinery abandons;
   repair gives up) because *what* to do about a fault is strategy
   knowledge — *when* to ask is not. *)

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

let settle d ~steps = function
  | Scan.More ->
      d.consec <- 0;
      More
  | Scan.Exhausted ->
      d.consec <- 0;
      Exhausted
  | Scan.Faulted f -> (
      (* Any successful step inside the batch breaks the consecutive
         run, exactly as step-at-a-time pumping would have. *)
      if steps > 1 then d.consec <- 0;
      d.consec <- d.consec + 1;
      match d.policy.on_fault f ~consec:d.consec with
      | Retry -> More
      | Absorb ->
          d.consec <- 0;
          More
      | Stop ->
          d.consec <- 0;
          Stopped f)

let pump d (cursor : Scan.cursor) ~budget ~on_rows =
  let b = cursor.next_batch ~budget in
  (* Rows first: a batch that delivered rows and then faulted must
     hand those rows to the consumer *before* the policy runs — a
     fallback scan re-covering them would otherwise redeliver. *)
  on_rows b;
  settle d ~steps:b.Scan.steps b.Scan.status

let drain d cursor ~budget ~on_rows =
  let rec loop () =
    match pump d cursor ~budget ~on_rows with
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
