(* Tactic combinator laws (DESIGN.md §17).

   Each combinator's .mli law is pinned against scripted step tactics
   (pure step lists, so expected streams are written out by hand), and
   a qcheck property checks that combinator-composed tactics are
   byte-identical — rows, order, step stream, fault sequence — to
   their bespoke twins on random scripts.  The Policy sub-algebra is
   pinned the same way: rung order, description strings, and the
   sealed driver behavior; so are Driver's pump and drain over
   scripted tactics, and settling step by step against pump. *)

open Rdb_data
open Rdb_exec
open Rdb_storage

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* Scripted steps: a tactic replaying a fixed list, then Done. *)
let rid i = Rid.make ~page:i ~slot:0
let row i = [| Value.int i |]
let deliver i = Scan.Deliver (rid i, row i)

let fault ?(kind = Fault.Transient) ?(class_ = Fault.Index) i =
  { Fault.file = 1; index = i; class_; kind }

let of_script script =
  let rest = ref script in
  fun () ->
    match !rest with
    | [] -> Scan.Done
    | s :: tl ->
        rest := tl;
        s

(* Pump a tactic for [n] quanta and record the raw step stream. *)
let stream ?(n = 64) tac =
  let out = ref [] in
  (try
     for _ = 1 to n do
       let s = tac () in
       out := s :: !out;
       match s with Scan.Done -> raise Exit | _ -> ()
     done
   with Exit -> ());
  List.rev !out

let delivered stream =
  List.filter_map (function Scan.Deliver (_, r) -> Some r | _ -> None) stream

let faults stream =
  List.filter_map (function Scan.Failed f -> Some f | _ -> None) stream

(* ------------------------------------------------------------------ *)
(* Per-combinator laws                                                 *)

let test_halt () =
  check "halt is Done forever" true
    (List.for_all (( = ) Scan.Done) (stream ~n:5 (fun () -> Tactic.halt ())))

let test_then () =
  let built = ref 0 in
  let tac =
    Tactic.then_
      (of_script [ deliver 1; Scan.Continue; deliver 2 ])
      (fun () ->
        incr built;
        of_script [ deliver 3 ])
  in
  let s = stream tac in
  check "rows in phase order" true
    (delivered s = [ row 1; row 2; row 3 ]);
  check_int "successor built exactly once" 1 !built;
  (* first's Done is consumed as the switch quantum's Continue *)
  check "seam is one Continue" true
    (s
    = [ deliver 1; Scan.Continue; deliver 2; Scan.Continue; deliver 3;
        Scan.Done ])

let test_then_lazy () =
  let built = ref 0 in
  let tac =
    Tactic.then_ (of_script [ deliver 1 ]) (fun () -> incr built; Tactic.halt)
  in
  check "first quantum delivers" true (tac () = deliver 1);
  check_int "successor not built before Done" 0 !built

let test_orelse () =
  let seen = ref None in
  let tac =
    Tactic.orelse
      (of_script [ deliver 1; Scan.Failed (fault 7); deliver 99 ])
      (fun f ->
        seen := Some f;
        of_script [ deliver 2 ])
  in
  let s = stream tac in
  check "left rows stand, handler continues" true
    (delivered s = [ row 1; row 2 ]);
  check "handler got the failure" true (!seen = Some (fault 7));
  check "switch consumed as Continue; no fault leaks" true (faults s = []);
  check "left is never stepped past its fault" true
    (not (List.mem (deliver 99) s))

let test_orelse_handler_fault_propagates () =
  let tac =
    Tactic.orelse
      (of_script [ Scan.Failed (fault 1) ])
      (fun _ -> of_script [ deliver 2; Scan.Failed (fault 2); deliver 3 ])
  in
  (* exactly one switch: the handler's own fault surfaces unchanged *)
  let s = stream tac in
  check "handler fault propagates" true (faults s = [ fault 2 ]);
  check "handler keeps stepping after its fault" true
    (delivered s = [ row 2; row 3 ])

let test_race () =
  let lefts = ref 0 and rights = ref 0 in
  let flip = ref false in
  let tac =
    Tactic.race
      ~choose:(fun () ->
        flip := not !flip;
        if !flip then `Left else `Right)
      ~left:(fun () -> incr lefts; Scan.Continue)
      ~right:(fun () -> incr rights; if !rights = 2 then Scan.Done else Scan.Continue)
  in
  ignore (stream tac);
  check_int "left advanced only when chosen" 2 !lefts;
  check_int "right ended the race on its own Done" 2 !rights

let test_preempt () =
  let probes = ref 0 in
  let ready = ref None in
  let tac =
    Tactic.preempt
      (fun () -> incr probes; !ready)
      (of_script [ deliver 1; Scan.Continue; deliver 99 ])
  in
  check "runs the base tactic until the probe fires" true (tac () = deliver 1);
  ready := Some (of_script [ deliver 2 ]);
  (* the switch quantum already steps the successor *)
  check "successor steps in the switch quantum" true (tac () = deliver 2);
  ready := None;
  check "successor persists" true (tac () = Scan.Done);
  check_int "probe never consulted after the switch" 2 !probes

let test_limit () =
  let stepped = ref 0 in
  let inner () =
    incr stepped;
    deliver !stepped
  in
  let tac = Tactic.limit 2 inner in
  check "delivers up to the cap, then Done without stepping" true
    (stream tac = [ deliver 1; deliver 2; Scan.Done ]);
  check_int "inner not stepped past the cap" 2 !stepped;
  check "limit 0 is halt" true (stream (Tactic.limit 0 inner) = [ Scan.Done ]);
  check "negative limit rejected" true
    (match Tactic.limit (-1) inner with
    | exception Invalid_argument _ -> true
    | (_ : Tactic.t) -> false)

let test_distinct () =
  let seen = Rdb_rid.Rid_set.create () in
  let tac =
    Tactic.distinct seen
      (of_script [ deliver 1; deliver 2; deliver 1; deliver 3 ])
  in
  check "repeats suppressed as Continue" true
    (stream tac = [ deliver 1; deliver 2; Scan.Continue; deliver 3; Scan.Done ]);
  check "delivered rids recorded" true (Rdb_rid.Rid_set.mem seen (rid 2));
  (* pre-seeded rids are suppressed too: overlapping orelse arms *)
  let tac2 = Tactic.distinct seen (of_script [ deliver 3; deliver 4 ]) in
  check "pre-seeded rids suppressed" true
    (stream tac2 = [ Scan.Continue; deliver 4; Scan.Done ])

(* ------------------------------------------------------------------ *)
(* Driver: pump and drain over scripted tactics                        *)

let test_driver_passthrough () =
  let rows = ref [] in
  let d = Driver.make Tactic.Policy.(seal (stack [ retry_transient ])) in
  let r =
    Driver.drain d
      (of_script [ deliver 1; Scan.Continue; deliver 2 ])
      ~on_row:(fun _ r -> rows := r :: !rows)
  in
  check "rows pass through in order" true (List.rev !rows = [ row 1; row 2 ]);
  check "exhaustion surfaces" true (r = Ok ())

let test_driver_stop_and_consec () =
  (* stop on the second *consecutive* fault: the driver owns the count
     and it must persist across pumps *)
  let stops = ref 0 in
  let policy =
    Tactic.Policy.(
      seal
        (stack
           [
             rung ~name:"once" (fun _ ~consec ->
                 if consec < 2 then Some Driver.Retry else None);
             give_up ~name:"stop";
           ]))
  in
  let d = Driver.make policy in
  let tac =
    of_script [ deliver 1; Scan.Failed (fault 1); Scan.Failed (fault 2); deliver 2 ]
  in
  let rec pump n =
    if n > 12 then check "terminates" true false
    else
      match Driver.pump d ~max_steps:1 tac ~on_row:(fun _ _ -> ()) with
      | Driver.Stopped _ -> incr stops
      | Driver.Exhausted -> ()
      | Driver.More -> pump (n + 1)
  in
  pump 0;
  check_int "stopped on the second consecutive fault" 1 !stops

let test_driver_absorb () =
  let absorbed = ref [] in
  let rows = ref [] in
  let d =
    Driver.make
      Tactic.Policy.(
        seal (stack [ absorb_with ~name:"note" (fun f -> absorbed := f :: !absorbed) ]))
  in
  check "absorbed faults keep stepping" true
    (Driver.drain d
       (of_script [ deliver 1; Scan.Failed (fault 5); deliver 2 ])
       ~on_row:(fun _ r -> rows := r :: !rows)
    = Ok ());
  check "rows on both sides of the fault" true (List.rev !rows = [ row 1; row 2 ]);
  check "the absorb action saw the fault" true (!absorbed = [ fault 5 ])

(* A pump ends at its step cap, at [Done], and at a faulted step once
   the policy has settled it — a retried fault included, so a repair
   step ends early at a retried fault. *)
let test_driver_pump_boundaries () =
  let d = Driver.make Tactic.Policy.(seal (stack [ retry_transient ])) in
  let tac =
    of_script
      [ deliver 1; Scan.Failed (fault 1); deliver 2; deliver 3; deliver 4; deliver 5 ]
  in
  let rec pumps acc =
    let rows = ref [] in
    let p = Driver.pump d ~max_steps:3 tac ~on_row:(fun _ r -> rows := r :: !rows) in
    let acc = List.rev !rows :: acc in
    match p with
    | Driver.More when List.length acc < 10 -> pumps acc
    | p -> (List.rev acc, p)
  in
  let handed_out, last = pumps [] in
  check "a retried fault ends its pump, the step cap the next" true
    (handed_out = [ [ row 1 ]; [ row 2; row 3; row 4 ]; [ row 5 ] ]);
  check "the last pump exhausts" true (last = Driver.Exhausted)

(* ------------------------------------------------------------------ *)
(* Policy rung algebra                                                 *)

let test_policy_stack_order () =
  let trail = ref [] in
  let mark name d =
    Tactic.Policy.rung ~name (fun _ ~consec:_ ->
        trail := name :: !trail;
        d)
  in
  let ladder =
    Tactic.Policy.stack
      [ mark "a" None; mark "b" (Some Driver.Absorb); mark "c" (Some Driver.Stop) ]
  in
  let p = Tactic.Policy.seal ladder in
  check "first deciding rung wins" true
    (p.Driver.on_fault (fault 1) ~consec:1 = Driver.Absorb);
  check "later rungs never consulted" true (!trail = [ "b"; "a" ]);
  check_str "describe is the rung names in order" "a ⇒ b ⇒ c"
    (Tactic.Policy.describe ladder);
  check "empty stack rejected" true
    (match Tactic.Policy.stack [] with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_policy_seal_total () =
  let p =
    Tactic.Policy.(
      seal (stack [ rung ~name:"never" (fun _ ~consec:_ -> None) ]))
  in
  check "an undecided fault is a hard error" true
    (match p.Driver.on_fault (fault 1) ~consec:1 with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_policy_observe_runs_first () =
  let order = ref [] in
  let p =
    Tactic.Policy.(
      seal
        ~observe:(fun _ ~consec:_ -> order := "observe" :: !order)
        (stack
           [
             rung ~name:"decide" (fun _ ~consec:_ ->
                 order := "decide" :: !order;
                 Some Driver.Retry);
           ]))
  in
  ignore (p.Driver.on_fault (fault 1) ~consec:1);
  check "observe precedes the ladder" true (!order = [ "decide"; "observe" ])

let test_policy_bounded_retry () =
  let penalties = ref [] in
  let r =
    Tactic.Policy.(
      stack
        [
          bounded_retry ~limit:2 ~penalize:(fun _ ~consec ->
              penalties := consec :: !penalties);
          give_up ~name:"stop";
        ])
  in
  let p = Tactic.Policy.seal r in
  check "retries within the limit" true
    (p.Driver.on_fault (fault 1) ~consec:2 = Driver.Retry);
  check "stops past the limit" true
    (p.Driver.on_fault (fault 1) ~consec:3 = Driver.Stop);
  check "declines persistent faults outright" true
    (p.Driver.on_fault (fault ~kind:Fault.Persistent 1) ~consec:1 = Driver.Stop);
  check "penalize ran only on deciding retries" true (!penalties = [ 2 ]);
  check_str "named after its limit" "retry(2) ⇒ stop" (Tactic.Policy.describe r)

let test_policy_retry_transient () =
  let p = Tactic.Policy.(seal (stack [ retry_transient; give_up ~name:"g" ])) in
  check "transient retries" true
    (p.Driver.on_fault (fault 1) ~consec:99 = Driver.Retry);
  check "persistent falls through" true
    (p.Driver.on_fault (fault ~kind:Fault.Persistent 1) ~consec:1 = Driver.Stop)

(* ------------------------------------------------------------------ *)
(* qcheck: composed tactics are byte-identical to their bespoke twins  *)

let qcount default =
  match Option.bind (Sys.getenv_opt "QCHECK_COUNT") int_of_string_opt with
  | Some n when n > 0 -> n
  | _ -> default

(* Random scripts over a small step vocabulary.  Scripts are pure
   lists, so a composition and its bespoke twin replay the exact same
   stream without sharing state. *)
let step_gen =
  QCheck.Gen.(
    int_range 0 9 >>= fun i ->
    frequency
      [
        (4, return (deliver i));
        (2, return Scan.Continue);
        (1, return (Scan.Failed (fault i)));
      ])

let script_gen = QCheck.Gen.(list_size (int_range 0 20) step_gen)

let script_arb =
  QCheck.make script_gen
    ~print:(fun s -> Printf.sprintf "script of %d steps" (List.length s))

let prop_then_is_concat =
  QCheck.Test.make ~name:"then_ = phase concatenation with a one-Continue seam"
    ~count:(qcount 200)
    QCheck.(pair script_arb script_arb)
    (fun (s1, s2) ->
      (* faults would pause a bespoke driver identically on both sides;
         compare the raw streams directly *)
      let composed =
        stream ~n:200 (Tactic.then_ (of_script s1) (fun () -> of_script s2))
      in
      let bespoke = s1 @ [ Scan.Continue ] @ s2 @ [ Scan.Done ] in
      composed = bespoke)

let prop_identity_wraps =
  QCheck.Test.make
    ~name:"identity-law combinators leave the step stream byte-identical"
    ~count:(qcount 200)
    QCheck.(pair script_arb (int_bound 3))
    (fun (s, pick) ->
      let wrap tac =
        match pick with
        | 0 -> Tactic.limit max_int tac
        | 1 -> Tactic.race ~choose:(fun () -> `Right) ~left:Tactic.halt ~right:tac
        | 2 -> Tactic.race ~choose:(fun () -> `Left) ~left:tac ~right:Tactic.halt
        | _ -> Tactic.preempt (fun () -> None) tac
      in
      stream ~n:200 (wrap (of_script s)) = stream ~n:200 (of_script s))

let prop_orelse_keeps_left_rows =
  QCheck.Test.make
    ~name:"orelse delivers every left row produced before the fault"
    ~count:(qcount 200)
    QCheck.(pair script_arb script_arb)
    (fun (s1, s2) ->
      let left_prefix =
        let rec take = function
          | [] -> []
          | Scan.Failed _ :: _ -> []
          | s :: tl -> s :: take tl
        in
        take s1
      in
      let composed =
        stream ~n:300 (Tactic.orelse (of_script s1) (fun _ -> of_script s2))
      in
      let switched = List.length left_prefix < List.length s1 in
      let expected_rows =
        delivered left_prefix @ if switched then delivered s2 else []
      in
      delivered composed = expected_rows)

(* A retrieval quantum is one tactic step whose outcome the cursor
   settles itself through [Driver.settle].  That must be exactly what
   [Driver.pump] does at any step cap: the same rows, the same
   (fault, consec) questions put to the policy, the same final
   progress.  The policy decides by fault index so every decision —
   retry, absorb, stop — shows up on random scripts. *)
let prop_settle_matches_pump =
  QCheck.Test.make ~name:"settling step by step = pump" ~count:(qcount 200)
    QCheck.(pair script_arb (oneofl ~print:string_of_int [ 1; 2; 3; max_int ]))
    (fun (s, max_steps) ->
      let recording calls =
        {
          Driver.on_fault =
            (fun f ~consec ->
              calls := (f, consec) :: !calls;
              match f.Fault.index mod 4 with
              | 0 | 1 -> Driver.Retry
              | 2 -> Driver.Absorb
              | _ -> Driver.Stop);
        }
      in
      let stepped =
        let calls = ref [] in
        let d = Driver.make (recording calls) in
        let tac = of_script s in
        let rec go n rows =
          let st = tac () in
          let rows =
            match st with Scan.Deliver (rid, r) -> (rid, r) :: rows | _ -> rows
          in
          match Driver.settle d st with
          | Driver.More when n < 200 -> go (n + 1) rows
          | p -> (List.rev rows, List.rev !calls, p)
        in
        go 0 []
      in
      let pumped =
        let calls = ref [] in
        let d = Driver.make (recording calls) in
        let tac = of_script s in
        let rows = ref [] in
        let rec go n =
          match
            Driver.pump d ~max_steps tac ~on_row:(fun rid r -> rows := (rid, r) :: !rows)
          with
          | Driver.More when n < 200 -> go (n + 1)
          | p -> (List.rev !rows, List.rev !calls, p)
        in
        go 0
      in
      stepped = pumped)

let () =
  Alcotest.run "rdb_tactic"
    [
      ( "laws",
        [
          Alcotest.test_case "halt" `Quick test_halt;
          Alcotest.test_case "then_" `Quick test_then;
          Alcotest.test_case "then_ laziness" `Quick test_then_lazy;
          Alcotest.test_case "orelse" `Quick test_orelse;
          Alcotest.test_case "orelse handler faults" `Quick
            test_orelse_handler_fault_propagates;
          Alcotest.test_case "race" `Quick test_race;
          Alcotest.test_case "preempt" `Quick test_preempt;
          Alcotest.test_case "limit" `Quick test_limit;
          Alcotest.test_case "distinct" `Quick test_distinct;
        ] );
      ( "step_driver",
        [
          Alcotest.test_case "pass-through" `Quick test_driver_passthrough;
          Alcotest.test_case "stop and consec across pumps" `Quick
            test_driver_stop_and_consec;
          Alcotest.test_case "absorb keeps stepping" `Quick test_driver_absorb;
          Alcotest.test_case "pump boundaries" `Quick test_driver_pump_boundaries;
        ] );
      ( "policy",
        [
          Alcotest.test_case "stack order" `Quick test_policy_stack_order;
          Alcotest.test_case "seal totality" `Quick test_policy_seal_total;
          Alcotest.test_case "observe first" `Quick test_policy_observe_runs_first;
          Alcotest.test_case "bounded retry" `Quick test_policy_bounded_retry;
          Alcotest.test_case "retry transient" `Quick test_policy_retry_transient;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_then_is_concat;
          QCheck_alcotest.to_alcotest prop_identity_wraps;
          QCheck_alcotest.to_alcotest prop_orelse_keeps_left_rows;
          QCheck_alcotest.to_alcotest prop_settle_matches_pump;
        ] );
    ]
