open Rdb_data
open Rdb_engine
open Rdb_exec
open Rdb_storage

type shed_policy = Shed_newest | Shed_largest_quota

type crash_point = Crash_at_grant of int | Crash_at_cost of float

type config = {
  max_inflight : int;
  quantum : float;
  max_queue : int;
  shed_policy : shed_policy;
  pressure_threshold : int;
  pool_shards : int option;
  crash_points : crash_point list;
  retrieval : Retrieval.config;
  record_events : bool;
  metrics : Rdb_util.Metrics.t option;
}

let default_config =
  {
    max_inflight = 4;
    quantum = 50.0;
    max_queue = max_int;
    shed_policy = Shed_newest;
    pressure_threshold = max_int;
    pool_shards = None;
    crash_points = [];
    retrieval = Retrieval.default_config;
    record_events = true;
    metrics = None;
  }

let starvation_bound = 16
let max_steps_per_quantum = 4096

type id = int

type outcome =
  | Served
  | Timed_out of { deadline : float; spent : float }
  | Shed of { reason : string }
  | Lost of { at_tick : int }

let outcome_to_string = function
  | Served -> "served"
  | Timed_out { deadline; spent } ->
      Printf.sprintf "timed out (%.1f spent of %.1f)" spent deadline
  | Shed { reason } -> "shed: " ^ reason
  | Lost { at_tick } -> Printf.sprintf "lost to crash at grant %d" at_tick

type event =
  | Submitted of { id : id; label : string }
  | Admitted of { id : id; tick : int; waited : int }
  | Finished of { id : id; tick : int; rows : int; outcome : outcome }
  | Degraded of { id : id; tick : int; depth : int }
  | Crashed of { tick : int; lost : int }

type session_stats = {
  s_id : id;
  s_label : string;
  s_rows : int;
  s_quanta : int;
  s_charged : float;
  s_queue_wait : int;
  s_max_gap : int;
  s_degradations : int;
  s_outcome : outcome;
  s_degraded : bool;
  s_summary : Retrieval.summary option;
}

type repair_stats = {
  r_id : id;
  r_label : string;
  r_index : string;
  r_entries : int;
  r_ok : bool;
  r_quanta : int;
  r_charged : float;
  r_queue_wait : int;
  r_max_gap : int;
  r_retries : int;
  r_trace : Trace.event list;
}

type pool_stats = {
  p_grants : int;
  p_physical : int;
  p_logical : int;
  p_hit_rate : float;
  p_total_cost : float;
  p_max_inflight_seen : int;
  p_submitted : int;
  p_served : int;
  p_shed : int;
  p_timed_out : int;
  p_lost : int;
  p_crash_tick : int option;
  p_shards : int;
  p_shard_lookups : int array;
  p_lookup_balance : float;
}

type report = {
  sessions : session_stats list;
  repairs : repair_stats list;
  pool : pool_stats;
  events : event list;
}

(* Internal per-query payload.  A query is Queued (no cursor yet: the
   plan is chosen at admission), then Active, then Done.  Shed queries
   never open a cursor at all — [q_summary] stays [None]. *)
type query = {
  q_table : Table.t;
  q_request : Retrieval.request;
  q_config : Retrieval.config;
  q_limit : int option;
  mutable q_cursor : Retrieval.cursor option;
  mutable q_rows : Row.t list;  (** reversed *)
  mutable q_count : int;  (** [List.length q_rows], kept as rows arrive *)
  mutable q_summary : Retrieval.summary option;
}

(* Internal per-repair payload.  The [Repair.t] is created at admission
   — that is when the index enters [Rebuilding] — mirroring the
   plan-choice-at-admission rule for queries. *)
type rjob = {
  r_rtable : Table.t;
  r_rindex : string;
  mutable r_repair : Repair.t option;
  mutable r_result : bool option;
}

type work = W_query of query | W_repair of rjob

(* One schedulable unit: the scheduling bookkeeping is shared, the
   payload differs.  Repairs are admitted, granted quanta, starved and
   reported exactly like queries — a rebuild is just another session
   competing for cost. *)
type job = {
  j_id : id;
  j_label : string;
  j_quota : float option;  (** admission-ordering key *)
  j_arrive_at : int;  (** grant tick at which the job joins the queue *)
  j_work : work;
  mutable j_arrived_tick : int;  (** tick at which it actually arrived *)
  mutable j_quanta : int;
  mutable j_charged : float;
  mutable j_queue_wait : int;
  mutable j_last_grant : int;  (** tick of the last grant (or admission) *)
  mutable j_max_gap : int;
  mutable j_outcome : outcome option;  (** set once, by [finish] only *)
  mutable j_degraded : bool;
}

type t = {
  cfg : config;
  db : Database.t;
  jobs : job Rdb_util.Dynarray.t;  (** indexed by id: ids are dense *)
  mutable events : event list;  (** reversed *)
  mutable ran : bool;
}

(* A NaN compares false both ways, so [quantum <= 0.0] would let a NaN
   quantum through (every grant then runs to the step cap) and a NaN
   cost crash point would never fire. *)
let create ?(config = default_config) db =
  if config.max_inflight < 1 then invalid_arg "Session.create: max_inflight < 1";
  if not (config.quantum > 0.0) then
    invalid_arg (Printf.sprintf "Session.create: quantum %g is not > 0" config.quantum);
  if config.max_queue < 0 then invalid_arg "Session.create: max_queue < 0";
  if config.pressure_threshold < 0 then
    invalid_arg "Session.create: pressure_threshold < 0";
  List.iter
    (function
      | Crash_at_cost c when Float.is_nan c ->
          invalid_arg "Session.create: crash point Crash_at_cost nan"
      | Crash_at_cost _ | Crash_at_grant _ -> ())
    config.crash_points;
  { cfg = config; db; jobs = Rdb_util.Dynarray.create (); events = []; ran = false }

let emit t e = if t.cfg.record_events then t.events <- e :: t.events

let fresh_job t ?label ?(arrive_at = 0) ~default_label ~quota work =
  if t.ran then invalid_arg "Session.submit: scheduler already ran";
  if arrive_at < 0 then invalid_arg "Session.submit: arrive_at < 0";
  let id = Rdb_util.Dynarray.length t.jobs in
  let label = match label with Some l -> l | None -> default_label id in
  let j =
    {
      j_id = id;
      j_label = label;
      j_quota = quota;
      j_arrive_at = arrive_at;
      j_work = work;
      j_arrived_tick = 0;
      j_quanta = 0;
      j_charged = 0.0;
      j_queue_wait = 0;
      j_last_grant = 0;
      j_max_gap = 0;
      j_outcome = None;
      j_degraded = false;
    }
  in
  Rdb_util.Dynarray.push t.jobs j;
  emit t (Submitted { id; label });
  id

(* Misuse fails at submission, before the job exists: a table outside
   the scheduler's database would read and fault in a pool the run
   neither meters nor shards, and a NaN quota compares false both ways
   in the admission order. *)
let check_submission t who table ~quota =
  if Table.pool table != Database.pool t.db then
    invalid_arg
      (Printf.sprintf "Session.%s: table %s is not in the scheduler's database" who
         (Table.name table));
  match quota with
  | Some q when Float.is_nan q ->
      invalid_arg (Printf.sprintf "Session.%s: quota is NaN" who)
  | _ -> ()

let submit t ?label ?config ?limit ?quota ?deadline ?arrive_at table request =
  check_submission t "submit" table ~quota;
  (match limit with
  | Some n when n < 0 ->
      invalid_arg (Printf.sprintf "Session.submit: negative limit %d" n)
  | _ -> ());
  let q_config = match config with Some c -> c | None -> t.cfg.retrieval in
  (* The cursor carries the one cost bound; the tighter of the two wins. *)
  let deadline =
    match (deadline, q_config.Retrieval.deadline) with
    | Some a, Some b -> Some (Float.min a b)
    | d, None | None, d -> d
  in
  (match deadline with
  | Some d when Float.is_nan d -> invalid_arg "Session.submit: deadline is NaN"
  | _ -> ());
  fresh_job t ?label ?arrive_at
    ~default_label:(Printf.sprintf "q%d")
    ~quota
    (W_query
       {
         q_table = table;
         q_request = request;
         q_config = { q_config with Retrieval.deadline };
         q_limit = limit;
         q_cursor = None;
         q_rows = [];
         q_count = 0;
         q_summary = None;
       })

let submit_repair t ?label ?quota table ~index =
  check_submission t "submit_repair" table ~quota;
  (match Table.find_index table index with
  | Some _ -> ()
  | None -> invalid_arg ("Session.submit_repair: unknown index " ^ index));
  fresh_job t ?label
    ~default_label:(Printf.sprintf "repair%d")
    ~quota
    (W_repair { r_rtable = table; r_rindex = index; r_repair = None; r_result = None })

let degradations (s : Retrieval.summary) =
  List.length
    (List.filter
       (function
         | Trace.Fault_retry _ | Trace.Index_quarantined _ | Trace.Fallback_tscan _ ->
             true
         | _ -> false)
       s.Retrieval.trace)

(* Admission order: smallest declared cost quota first (a query that
   declares one may jump an undeclared one — a cost deadline is not a
   declaration), FIFO within a quota class. *)
let admission_key j =
  match j.j_quota with Some quota -> (quota, j.j_id) | None -> (infinity, j.j_id)

(* The job with the least [key]; every key ends in the job id, so the
   choice never depends on list order. *)
let least key = function
  | [] -> None
  | first :: rest ->
      Some
        (List.fold_left (fun best j -> if key j < key best then j else best) first rest)

(* Shedding victim: [Shed_newest] drops the most recent arrival (the
   storm's marginal query), [Shed_largest_quota] drops the largest
   declared quota (unbounded work first) — ties broken newest-first so
   both policies are total orders.  Keys are negated for [least]. *)
let victim_key policy j =
  match (policy, j.j_quota) with
  | Shed_newest, _ -> (0.0, -j.j_id)
  | Shed_largest_quota, Some q -> (-.q, -j.j_id)
  | Shed_largest_quota, None -> (neg_infinity, -j.j_id)

let query_finished q =
  match (q.q_limit, q.q_cursor) with
  | Some n, Some c -> Retrieval.rows_delivered c >= n
  | _ -> false

let job_rows j =
  match j.j_work with
  | W_query q -> q.q_count
  | W_repair r -> ( match r.r_repair with Some rp -> Repair.entries rp | None -> 0)

(* --- the run: a state record and its transitions ----------------------- *)

(* Every job is in exactly one place: [unarrived] (sorted by arrival
   tick, then id, so each arrival peels a prefix), [pending] (arrived,
   waiting for admission), [active] (admitted, holding a cursor or a
   rebuild), or ended, with [j_outcome] set by [finish].  The four
   outcome counters are the ledger; [finish] keeps them. *)
type run_state = {
  t : t;
  meter0 : Cost.t;  (** global meter at the start of the run *)
  mutable unarrived : job list;
  mutable pending : job list;
  mutable active : job list;
  mutable tick : int;
  mutable max_inflight_seen : int;
  mutable crash_tick : int option;
  mutable served : int;
  mutable shed : int;
  mutable timed_out : int;
  mutable lost : int;
}

let metric_incr st name =
  Option.iter (fun m -> Rdb_util.Metrics.(incr (counter m name))) st.t.cfg.metrics

(* The one transition that ends a job.  A lost job's rows, cursor and
   summary vanish with the process — no close, no summary, no feedback
   teaching — and it gets no event of its own: the crash's [Crashed]
   event counts it.  Any other outcome closes the cursor, if one was
   ever opened, into the session's summary. *)
let finish st j outcome =
  (match (j.j_work, outcome) with
  | W_query q, Lost _ ->
      q.q_rows <- [];
      q.q_count <- 0;
      q.q_cursor <- None;
      q.q_summary <- None
  | W_query q, (Served | Timed_out _ | Shed _) ->
      q.q_summary <- Option.map Retrieval.close q.q_cursor
  | W_repair _, _ -> ());
  assert (j.j_outcome = None);
  j.j_outcome <- Some outcome;
  (match outcome with
  | Served -> st.served <- st.served + 1
  | Timed_out _ ->
      st.timed_out <- st.timed_out + 1;
      metric_incr st "session.timed_out"
  | Shed _ ->
      st.shed <- st.shed + 1;
      metric_incr st "session.shed"
  | Lost _ ->
      st.lost <- st.lost + 1;
      metric_incr st "session.lost");
  match outcome with
  | Lost _ -> ()
  | Served | Timed_out _ | Shed _ ->
      emit st.t (Finished { id = j.j_id; tick = st.tick; rows = job_rows j; outcome })

(* Move every job whose arrival tick has come into the queue.  A
   deadline that is already spent on arrival (<= 0) exits right here
   with a structured timeout: no cursor, no planning cost. *)
let arrive st =
  let rec peel acc = function
    | j :: rest when j.j_arrive_at <= st.tick -> peel (j :: acc) rest
    | rest -> (acc, rest)
  in
  let now_rev, later = peel [] st.unarrived in
  st.unarrived <- later;
  (* Process the batch in submission order (the peel yields
     arrival-tick order) so the event log is unchanged. *)
  let now = List.sort (fun a b -> compare a.j_id b.j_id) now_rev in
  List.iter
    (fun j ->
      j.j_arrived_tick <- st.tick;
      match j.j_work with
      | W_query { q_config = { Retrieval.deadline = Some d; _ }; _ } when d <= 0.0 ->
          finish st j (Timed_out { deadline = d; spent = 0.0 })
      | _ -> st.pending <- st.pending @ [ j ])
    now

let admit st =
  let cfg = st.t.cfg in
  while List.length st.active < cfg.max_inflight && st.pending <> [] do
    match least admission_key st.pending with
    | None -> ()
    | Some j ->
        st.pending <- List.filter (fun p -> p.j_id <> j.j_id) st.pending;
        j.j_queue_wait <- st.tick - j.j_arrived_tick;
        j.j_last_grant <- st.tick;
        (* Graceful degradation: once the queue behind this admission
           is deep enough, drop the competitive background-refinement
           arms (the paper's bgr) — fast-first LIMIT probes keep
           their refinement because bgr is their only row source.
           Rows are invariant either way (Retrieval pins this). *)
        let depth = List.length st.pending in
        (match j.j_work with
        | W_query q ->
            let config =
              if
                depth >= cfg.pressure_threshold
                && q.q_limit = None
                && q.q_config.Retrieval.bgr_enabled
              then begin
                j.j_degraded <- true;
                metric_incr st "session.degraded";
                emit st.t (Degraded { id = j.j_id; tick = st.tick; depth });
                { q.q_config with Retrieval.bgr_enabled = false }
              end
              else q.q_config
            in
            (* Plan choice happens here, sequentially: competition
               state is born inside this cursor and never shared.  A
               repair likewise moves its index to Rebuilding here. *)
            q.q_cursor <- Some (Retrieval.open_ ~config q.q_table q.q_request)
        | W_repair r -> r.r_repair <- Some (Repair.create r.r_rtable ~index:r.r_rindex));
        emit st.t (Admitted { id = j.j_id; tick = st.tick; waited = j.j_queue_wait });
        st.active <- st.active @ [ j ];
        st.max_inflight_seen <- max st.max_inflight_seen (List.length st.active)
  done

(* Bounded queue: whatever admission could not drain past [max_queue]
   is shed with a structured outcome — the victim never opens a
   cursor, so a shed query charges nothing and perturbs nothing. *)
let shed_excess st =
  let cfg = st.t.cfg in
  let reason =
    match cfg.shed_policy with
    | Shed_newest -> "queue full (shed-newest)"
    | Shed_largest_quota -> "queue full (shed-largest-quota)"
  in
  while List.length st.pending > cfg.max_queue do
    match least (victim_key cfg.shed_policy) st.pending with
    | None -> ()
    | Some j ->
        st.pending <- List.filter (fun p -> p.j_id <> j.j_id) st.pending;
        j.j_queue_wait <- st.tick - j.j_arrived_tick;
        finish st j (Shed { reason })
  done

(* Deterministic crash injection (DESIGN.md §15).  Crashes fire only
   at grant boundaries — the step-boundary crash model — so any
   multi-operation sequence inside one step (e.g. manifest commit +
   tree swap) is atomic by construction.  [crash_points = []] (the
   default) short-circuits: no cost reads, no behaviour change. *)
let crash_due st =
  List.exists
    (function
      | Crash_at_grant g -> st.tick >= g
      | Crash_at_cost c ->
          let meter = Buffer_pool.global_meter (Database.pool st.t.db) in
          Cost.total meter -. Cost.total st.meter0 >= c)
    st.t.cfg.crash_points

(* The process dies: every non-terminal submission is lost, in
   submission order.  Terminal outcomes (served / shed / timed out)
   already happened and stand.  A crash ends the run, so [st.lost]
   counts exactly this crash's losses. *)
let crash st =
  st.crash_tick <- Some st.tick;
  Rdb_util.Dynarray.iter
    (fun j -> if j.j_outcome = None then finish st j (Lost { at_tick = st.tick }))
    st.t.jobs;
  st.pending <- [];
  st.active <- [];
  st.unarrived <- [];
  emit st.t (Crashed { tick = st.tick; lost = st.lost })

(* Least-charged-first with a starvation override: any session passed
   over for [starvation_bound] consecutive grants runs next. *)
let pick_next st =
  let gap j = st.tick - j.j_last_grant in
  match List.filter (fun j -> gap j >= starvation_bound) st.active with
  | [] -> least (fun j -> (j.j_charged, j.j_id)) st.active
  | starving -> least (fun j -> (-gap j, j.j_id)) starving

let spent j =
  match j.j_work with
  | W_query q -> Retrieval.spent (Option.get q.q_cursor)
  | W_repair r -> Repair.spent (Option.get r.r_repair)

(* Both work kinds share the one clocked grant loop (exposed as
   [Retrieval.grant] / [Repair.grant] over the generic driver): stop
   when the job finishes, the query's cost deadline is reached (the
   cursor checks its own bound), the quantum's cost is spent, or the
   step cap is hit — all checked before each step.  [None] means the
   job paused with work left. *)
let run_quantum cfg j =
  match j.j_work with
  | W_query q -> (
      let cursor = Option.get q.q_cursor in
      match
        Retrieval.grant cursor ~budget:cfg.quantum ~max_steps:max_steps_per_quantum
          ~stop:(fun () -> query_finished q)
          ~on_row:(fun row ->
            q.q_rows <- row :: q.q_rows;
            q.q_count <- q.q_count + 1)
      with
      | `Exhausted -> Some Served
      | `Paused -> if query_finished q then Some Served else None
      | `Timed_out ->
          let deadline = Option.get q.q_config.Retrieval.deadline in
          Some (Timed_out { deadline; spent = Retrieval.spent cursor }))
  | W_repair r -> (
      match
        Repair.grant (Option.get r.r_repair) ~budget:cfg.quantum
          ~max_steps:max_steps_per_quantum
      with
      | Some ok ->
          r.r_result <- Some ok;
          Some Served
      | None -> None)

let grant st j =
  (* queue depth at grant time: runnable sessions plus those still
     waiting for admission *)
  Option.iter
    (fun m ->
      let depth = List.length st.active + List.length st.pending in
      Rdb_util.Metrics.(observe (histogram m "session.queue_depth") (float_of_int depth)))
    st.t.cfg.metrics;
  j.j_max_gap <- max j.j_max_gap (st.tick - j.j_last_grant);
  j.j_last_grant <- st.tick;
  st.tick <- st.tick + 1;
  j.j_quanta <- j.j_quanta + 1;
  let before = spent j in
  let ended = run_quantum st.t.cfg j in
  j.j_charged <- j.j_charged +. (spent j -. before);
  match ended with
  | None -> ()
  | Some outcome ->
      finish st j outcome;
      st.active <- List.filter (fun p -> p.j_id <> j.j_id) st.active

(* One scheduling round; [false] once the run is over.  A round either
   grants (the tick advances), idles the pool forward to the next
   arrival, or ends the run, so the run terminates. *)
let step st =
  if crash_due st then begin
    crash st;
    false
  end
  else begin
    arrive st;
    admit st;
    shed_excess st;
    match (pick_next st, st.unarrived) with
    | Some j, _ ->
        grant st j;
        true
    | None, [] -> false
    | None, j :: _ ->
        (* sorted by arrival tick: the head is the next arrival *)
        st.tick <- max st.tick j.j_arrive_at;
        true
  end

let session_stats j q =
  {
    s_id = j.j_id;
    s_label = j.j_label;
    s_rows = q.q_count;
    s_quanta = j.j_quanta;
    s_charged = j.j_charged;
    s_queue_wait = j.j_queue_wait;
    s_max_gap = j.j_max_gap;
    s_degradations = (match q.q_summary with Some s -> degradations s | None -> 0);
    s_outcome = Option.get j.j_outcome;
    s_degraded = j.j_degraded;
    s_summary = q.q_summary;
  }

(* A crash can leave a repair with no [Repair.t] at all (lost before
   admission) — report it with zero work. *)
let repair_stats j r =
  let entries, trace =
    match r.r_repair with
    | Some rp -> (Repair.entries rp, Trace.events (Repair.trace rp))
    | None -> (0, [])
  in
  {
    r_id = j.j_id;
    r_label = j.j_label;
    r_index = r.r_rindex;
    r_entries = entries;
    r_ok = (match r.r_result with Some ok -> ok | None -> false);
    r_quanta = j.j_quanta;
    r_charged = j.j_charged;
    r_queue_wait = j.j_queue_wait;
    r_max_gap = j.j_max_gap;
    r_retries =
      List.length (List.filter (function Trace.Fault_retry _ -> true | _ -> false) trace);
    r_trace = trace;
  }

let run t =
  if t.ran then invalid_arg "Session.run: scheduler already ran";
  t.ran <- true;
  let pool = Database.pool t.db in
  (* Repartition before the first access so every block of the run maps
     through the requested shard count.  Resharding drops residency
     (cost-only — a flush); a pool already at the requested count is
     left untouched, so [Some 1] on a fresh single-shard pool is
     byte-identical to [None]. *)
  (match t.cfg.pool_shards with
  | None -> ()
  | Some n -> if Buffer_pool.shards pool <> n then Buffer_pool.reshard pool ~shards:n);
  let shard_lookups0 = Buffer_pool.shard_lookups pool in
  let all = Rdb_util.Dynarray.to_list t.jobs in
  (* Everyone starts unarrived — the first [arrive] at tick 0 moves the
     arrive-at-0 submissions in, so the deadline-on-arrival check is
     one code path. *)
  let st =
    {
      t;
      meter0 = Cost.snapshot (Buffer_pool.global_meter pool);
      unarrived =
        List.sort
          (fun a b -> compare (a.j_arrive_at, a.j_id) (b.j_arrive_at, b.j_id))
          all;
      pending = [];
      active = [];
      tick = 0;
      max_inflight_seen = 0;
      crash_tick = None;
      served = 0;
      shed = 0;
      timed_out = 0;
      lost = 0;
    }
  in
  while step st do
    ()
  done;
  (* The ledger check: every job ended, and ended through [finish]. *)
  let submitted = Rdb_util.Dynarray.length t.jobs in
  if
    List.exists (fun j -> j.j_outcome = None) all
    || st.served + st.shed + st.timed_out + st.lost <> submitted
  then failwith "Session.run: the outcome ledger does not match the submissions";
  let meter1 = Buffer_pool.global_meter pool in
  let physical = Cost.physical_reads meter1 - Cost.physical_reads st.meter0 in
  let logical = Cost.logical_reads meter1 - Cost.logical_reads st.meter0 in
  (* Probes this run performed, per shard (the pool counters are
     lifetime totals; shard count is constant during a run). *)
  let shard_lookups = Array.map2 ( - ) (Buffer_pool.shard_lookups pool) shard_lookups0 in
  let lookup_balance = Buffer_pool.lookup_balance shard_lookups in
  let sessions =
    List.filter_map
      (fun j ->
        match j.j_work with W_query q -> Some (session_stats j q) | W_repair _ -> None)
      all
  in
  let repairs =
    List.filter_map
      (fun j ->
        match j.j_work with W_repair r -> Some (repair_stats j r) | W_query _ -> None)
      all
  in
  let hit_rate =
    if physical + logical = 0 then 1.0
    else float_of_int logical /. float_of_int (physical + logical)
  in
  (match t.cfg.metrics with
  | None -> ()
  | Some m ->
      let module M = Rdb_util.Metrics in
      M.add (M.counter m "session.grants") st.tick;
      M.add (M.counter m "session.queries") (List.length sessions);
      if repairs <> [] then M.add (M.counter m "session.repairs") (List.length repairs);
      let max_gap = List.fold_left (fun acc j -> max acc j.j_max_gap) 0 all in
      M.set (M.gauge m "session.max_gap") (float_of_int max_gap);
      (* paper-facing fairness guarantee: how much of the bounded-wait
         budget the worst-treated session actually used up *)
      M.set
        (M.gauge m "session.starvation_margin")
        (float_of_int (starvation_bound - max_gap));
      M.set (M.gauge m "session.hit_rate") hit_rate;
      (* balance gauge only on a partitioned pool, mirroring the
         pool.shard<k>.* counters: shards = 1 records nothing new *)
      if Buffer_pool.shards pool > 1 then
        M.set (M.gauge m "pool.lookup_balance") lookup_balance;
      List.iter
        (fun s ->
          M.observe (M.histogram m "session.quanta") (float_of_int s.s_quanta);
          M.observe (M.histogram m "session.queue_wait") (float_of_int s.s_queue_wait);
          M.observe (M.histogram m "session.charged") s.s_charged)
        sessions);
  {
    sessions;
    repairs;
    pool =
      {
        p_grants = st.tick;
        p_physical = physical;
        p_logical = logical;
        p_hit_rate = hit_rate;
        p_total_cost = List.fold_left (fun acc j -> acc +. j.j_charged) 0.0 all;
        p_max_inflight_seen = st.max_inflight_seen;
        p_submitted = submitted;
        p_served = st.served;
        p_shed = st.shed;
        p_timed_out = st.timed_out;
        p_lost = st.lost;
        p_crash_tick = st.crash_tick;
        p_shards = Buffer_pool.shards pool;
        p_shard_lookups = shard_lookups;
        p_lookup_balance = lookup_balance;
      };
    events = List.rev t.events;
  }

let job_of t who id =
  if id < 0 || id >= Rdb_util.Dynarray.length t.jobs then
    invalid_arg (Printf.sprintf "Session.%s: unknown id" who);
  Rdb_util.Dynarray.get t.jobs id

let rows_of t id =
  match (job_of t "rows_of" id).j_work with
  | W_query q -> List.rev q.q_rows
  | W_repair _ -> invalid_arg "Session.rows_of: id is a repair"

let repair_of t id =
  match (job_of t "repair_of" id).j_work with
  | W_repair r -> r.r_result
  | W_query _ -> invalid_arg "Session.repair_of: id is a query"

let event_to_string = function
  | Submitted { id; label } -> Printf.sprintf "submitted q%d (%s)" id label
  | Admitted { id; tick; waited } ->
      Printf.sprintf "admitted q%d at grant %d (waited %d)" id tick waited
  | Finished { id; tick; rows; outcome = Served } ->
      Printf.sprintf "finished q%d at grant %d (%d rows)" id tick rows
  | Finished { id; tick; outcome = Shed { reason }; _ } ->
      Printf.sprintf "shed q%d at grant %d (%s)" id tick reason
  | Finished { id; tick; outcome = Timed_out { spent; deadline }; _ } ->
      Printf.sprintf "timed out q%d at grant %d (%.1f spent of %.1f)" id tick spent
        deadline
  | Finished { id; tick; outcome = Lost _; _ } ->
      Printf.sprintf "lost q%d at grant %d" id tick
  | Degraded { id; tick; depth } ->
      Printf.sprintf "degraded q%d at grant %d (queue depth %d)" id tick depth
  | Crashed { tick; lost } ->
      Printf.sprintf "CRASH at grant %d (%d submissions lost)" tick lost

let report_to_string r =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    "session                       rows  quanta  charged  wait  max-gap  degr  tactic / status\n";
  let session_line s =
    let tail =
      match s.s_summary with
      | Some summary ->
          Printf.sprintf "%s / %s"
            (Retrieval.tactic_to_string summary.Retrieval.tactic)
            (Retrieval.status_to_string summary.Retrieval.status)
      | None -> "- / " ^ outcome_to_string s.s_outcome
    in
    let tail = if s.s_degraded then tail ^ " [degraded]" else tail in
    Printf.sprintf "%-28s %5d %7d %8.1f %5d %8d %5d  %s\n" s.s_label s.s_rows
      s.s_quanta s.s_charged s.s_queue_wait s.s_max_gap s.s_degradations tail
  in
  let repair_line p =
    Printf.sprintf "%-28s %5d %7d %8.1f %5d %8d %5d  %s / %s\n" p.r_label p.r_entries
      p.r_quanta p.r_charged p.r_queue_wait p.r_max_gap p.r_retries
      ("rebuild " ^ p.r_index)
      (if p.r_ok then "completed" else "failed")
  in
  (* Merge queries and repairs back into submission order. *)
  let lines =
    List.map (fun s -> (s.s_id, session_line s)) r.sessions
    @ List.map (fun p -> (p.r_id, repair_line p)) r.repairs
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  List.iter (fun (_, l) -> Buffer.add_string buf l) lines;
  Buffer.add_string buf
    (Printf.sprintf
       "pool: %d grants, %d physical + %d logical reads (hit rate %.3f), total \
        charged %.1f, max in-flight %d\n"
       r.pool.p_grants r.pool.p_physical r.pool.p_logical r.pool.p_hit_rate
       r.pool.p_total_cost r.pool.p_max_inflight_seen);
  (* Single-shard reports are byte-identical to the pre-sharding
     scheduler; the shard line only exists on a partitioned pool. *)
  if r.pool.p_shards > 1 then
    Buffer.add_string buf
      (Printf.sprintf "shards: %d, lookup balance %.2f (lookups %s)\n"
         r.pool.p_shards r.pool.p_lookup_balance
         (String.concat "/"
            (Array.to_list (Array.map string_of_int r.pool.p_shard_lookups))));
  (* Crash-free reports keep the exact historical ledger line; the
     crash line and the [+ lost] term only appear when a crash fired,
     so a zero-crash run renders byte-identically to before. *)
  (match r.pool.p_crash_tick with
  | None -> ()
  | Some tick ->
      Buffer.add_string buf
        (Printf.sprintf "crash: process died at grant %d (%d submissions lost)\n" tick
           r.pool.p_lost));
  if r.pool.p_lost > 0 || r.pool.p_crash_tick <> None then
    Buffer.add_string buf
      (Printf.sprintf
         "admissions: %d served + %d shed + %d timed out + %d lost = %d submitted\n"
         r.pool.p_served r.pool.p_shed r.pool.p_timed_out r.pool.p_lost
         r.pool.p_submitted)
  else
    Buffer.add_string buf
      (Printf.sprintf "admissions: %d served + %d shed + %d timed out = %d submitted\n"
         r.pool.p_served r.pool.p_shed r.pool.p_timed_out r.pool.p_submitted);
  (match r.events with
  | [] -> ()
  | evs ->
      Buffer.add_string buf "events:\n";
      List.iter (fun e -> Buffer.add_string buf ("  " ^ event_to_string e ^ "\n")) evs);
  Buffer.contents buf
