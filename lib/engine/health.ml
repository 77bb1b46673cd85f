type state = Healthy | Suspect | Quarantined | Rebuilding

let state_to_string = function
  | Healthy -> "healthy"
  | Suspect -> "suspect"
  | Quarantined -> "quarantined"
  | Rebuilding -> "rebuilding"

type config = {
  suspect_threshold : int;
  backoff_budget : float;
  backoff_factor : float;
}

let default_config =
  { suspect_threshold = 2; backoff_budget = 400.0; backoff_factor = 2.0 }

type transition = {
  tr_structure : string;
  tr_from : state;
  tr_to : state;
  tr_reason : string;
}

type entry = {
  mutable st : state;
  mutable corrupt_count : int;
  mutable budget : float;  (** current backoff budget (escalates) *)
  mutable due_at : float;  (** cost-clock instant the next probe is allowed *)
  mutable escalations : int;  (** times the backoff budget was escalated *)
  mutable transitions : int;
}

type verdict = Verdict_quarantined of { escalations : int } | Verdict_cleared

type t = {
  mutable cfg : config;
  entries : (string, entry) Hashtbl.t;
  mutable observer : (string -> verdict -> unit) option;
}

let create ?(config = default_config) () =
  if config.suspect_threshold < 1 then
    invalid_arg "Health.create: suspect_threshold < 1";
  if config.backoff_budget <= 0.0 then invalid_arg "Health.create: backoff_budget <= 0";
  if config.backoff_factor < 1.0 then invalid_arg "Health.create: backoff_factor < 1";
  { cfg = config; entries = Hashtbl.create 8; observer = None }

let set_observer t f = t.observer <- Some f

let observe t name v =
  match t.observer with None -> () | Some f -> f name v

let configure t config = t.cfg <- config

let entry t name =
  match Hashtbl.find_opt t.entries name with
  | Some e -> e
  | None ->
      let e =
        {
          st = Healthy;
          corrupt_count = 0;
          budget = t.cfg.backoff_budget;
          due_at = 0.0;
          escalations = 0;
          transitions = 0;
        }
      in
      Hashtbl.add t.entries name e;
      e

let state t name =
  match Hashtbl.find_opt t.entries name with Some e -> e.st | None -> Healthy

let goto e name to_ reason =
  let from_ = e.st in
  e.st <- to_;
  e.transitions <- e.transitions + 1;
  Some { tr_structure = name; tr_from = from_; tr_to = to_; tr_reason = reason }

let quarantine_ t e name ~now reason =
  e.due_at <- now +. e.budget;
  observe t name (Verdict_quarantined { escalations = e.escalations });
  goto e name Quarantined reason

let record_corrupt t ~now name =
  let e = entry t name in
  match e.st with
  | Healthy ->
      e.corrupt_count <- 1;
      if t.cfg.suspect_threshold = 1 then
        quarantine_ t e name ~now "checksum mismatch (threshold reached)"
      else goto e name Suspect "checksum mismatch"
  | Suspect ->
      e.corrupt_count <- e.corrupt_count + 1;
      if e.corrupt_count >= t.cfg.suspect_threshold then
        quarantine_ t e name ~now "repeated checksum mismatches"
      else None
  | Quarantined | Rebuilding -> None

let record_dead t ~now name =
  let e = entry t name in
  match e.st with
  | Healthy | Suspect -> quarantine_ t e name ~now "retry exhausted / dead structure"
  | Quarantined ->
      (* Re-probe (or a later access) failed again: escalate the
         backoff so a persistently dead structure is probed ever more
         rarely, never in a tight loop. *)
      e.budget <- e.budget *. t.cfg.backoff_factor;
      e.escalations <- e.escalations + 1;
      e.due_at <- now +. e.budget;
      observe t name (Verdict_quarantined { escalations = e.escalations });
      None
  | Rebuilding -> None

let clear_ t e name =
  e.corrupt_count <- 0;
  e.budget <- t.cfg.backoff_budget;
  e.due_at <- 0.0;
  e.escalations <- 0;
  observe t name Verdict_cleared

let mark_healthy t name =
  let e = entry t name in
  match e.st with
  | Healthy -> None
  | Suspect | Quarantined | Rebuilding ->
      clear_ t e name;
      goto e name Healthy "probe succeeded"

let begin_rebuild t name =
  let e = entry t name in
  match e.st with
  | Rebuilding -> None
  | _ -> goto e name Rebuilding "online rebuild started"

let end_rebuild t ~now ~ok name =
  let e = entry t name in
  match e.st with
  | Rebuilding ->
      if ok then begin
        clear_ t e name;
        goto e name Healthy "rebuilt from heap"
      end
      else begin
        e.budget <- e.budget *. t.cfg.backoff_factor;
        e.escalations <- e.escalations + 1;
        quarantine_ t e name ~now "rebuild failed"
      end
  | _ -> None

(* --- crash recovery support ------------------------------------------ *)

let reset t = Hashtbl.reset t.entries

let restore_quarantined t ~now ~escalations name =
  if escalations < 0 then invalid_arg "Health.restore_quarantined: escalations < 0";
  let e = entry t name in
  e.st <- Quarantined;
  e.corrupt_count <- 0;
  e.escalations <- escalations;
  e.budget <-
    t.cfg.backoff_budget *. (t.cfg.backoff_factor ** float_of_int escalations);
  e.due_at <- now +. e.budget;
  observe t name (Verdict_quarantined { escalations })

let probe_due t ~now name =
  match Hashtbl.find_opt t.entries name with
  | Some e -> e.st = Quarantined && now >= e.due_at
  | None -> false

let usable t ~now name =
  match Hashtbl.find_opt t.entries name with
  | None -> true
  | Some e -> (
      match e.st with
      | Healthy | Suspect -> true
      | Rebuilding -> false
      | Quarantined -> now >= e.due_at)

type status = {
  structure : string;
  st : state;
  probe_in : float option;  (** cost units until re-probe; Quarantined only *)
  transitions : int;
}

let report t ~now =
  Hashtbl.fold
    (fun name (e : entry) acc ->
      let probe_in =
        if e.st = Quarantined then Some (Float.max 0.0 (e.due_at -. now)) else None
      in
      { structure = name; st = e.st; probe_in; transitions = e.transitions } :: acc)
    t.entries []
  |> List.sort (fun a b -> compare a.structure b.structure)

let status_to_string s =
  match s.probe_in with
  | Some due ->
      Printf.sprintf "%-16s %-12s (re-probe in %.0f cost units, %d transitions)"
        s.structure (state_to_string s.st) due s.transitions
  | None ->
      Printf.sprintf "%-16s %-12s (%d transitions)" s.structure
        (state_to_string s.st) s.transitions
