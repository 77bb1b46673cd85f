(* Tactic combinators (DESIGN.md §17).

   A tactic is a resumable quantum function [unit -> Scan.step]; the
   combinators compose quantum functions the way LCF tacticals compose
   tactics.  Everything here is glue over the step protocol — no block
   access, no cost charging, no trace emission: effects belong to the
   arms (which are closures over strategy state) and to Policy rungs,
   so composing tactics can never change what any arm charges or
   delivers. *)

open Rdb_storage

type t = unit -> Scan.step

let halt () = Scan.Done

let then_ first next =
  let successor = ref None in
  fun () ->
    match !successor with
    | Some tac -> tac ()
    | None -> (
        match first () with
        | Scan.Done ->
            (* The phase switch consumes this quantum: the successor is
               built (its constructor's side effects run exactly once)
               and stepped from the next quantum on. *)
            successor := Some (next ());
            Scan.Continue
        | s -> s)

let orelse tac handler =
  let current = ref tac in
  let switched = ref false in
  fun () ->
    match !current () with
    | Scan.Failed f when not !switched ->
        switched := true;
        current := handler f;
        Scan.Continue
    | s -> s

let race ~choose ~left ~right =
 fun () -> match choose () with `Left -> left () | `Right -> right ()

let preempt probe tac =
  let successor = ref None in
  fun () ->
    match !successor with
    | Some s -> s ()
    | None -> (
        match probe () with
        | Some s ->
            successor := Some s;
            s ()
        | None -> tac ())

let limit n tac =
  if n < 0 then invalid_arg "Tactic.limit: negative row limit";
  let seen = ref 0 in
  fun () ->
    if !seen >= n then Scan.Done
    else
      match tac () with
      | Scan.Deliver _ as s ->
          incr seen;
          s
      | s -> s

let distinct seen tac () =
  match tac () with
  | Scan.Deliver (rid, _) as s ->
      (* One bit test per row; every retrieval cursor runs under this. *)
      if Rdb_rid.Rid_set.add seen rid then s else Scan.Continue
  | s -> s

module Policy = struct
  type rung = {
    names : string list;
    decide : Fault.failure -> consec:int -> Driver.decision option;
  }

  let rung ~name decide = { names = [ name ]; decide }

  let orelse a b =
    {
      names = a.names @ b.names;
      decide =
        (fun f ~consec ->
          match a.decide f ~consec with
          | Some _ as d -> d
          | None -> b.decide f ~consec);
    }

  let stack = function
    | [] -> invalid_arg "Tactic.Policy.stack: empty ladder"
    | r :: rs -> List.fold_left orelse r rs

  let describe r = String.concat " ⇒ " r.names

  let retry_transient =
    rung ~name:"retry-transient" (fun f ~consec:_ ->
        if Fault.is_transient f then Some Driver.Retry else None)

  let bounded_retry ~limit ~penalize =
    rung
      ~name:(Printf.sprintf "retry(%d)" limit)
      (fun f ~consec ->
        if Fault.is_transient f && consec <= limit then begin
          penalize f ~consec;
          Some Driver.Retry
        end
        else None)

  let absorb_with ~name act =
    rung ~name (fun f ~consec:_ ->
        act f;
        Some Driver.Absorb)

  let give_up ~name = rung ~name (fun _ ~consec:_ -> Some Driver.Stop)

  let seal ?(observe = fun _ ~consec:_ -> ()) r =
    {
      Driver.on_fault =
        (fun f ~consec ->
          observe f ~consec;
          match r.decide f ~consec with
          | Some d -> d
          | None ->
              invalid_arg
                ("Tactic.Policy.seal: no rung decided " ^ Fault.describe f));
    }
end
