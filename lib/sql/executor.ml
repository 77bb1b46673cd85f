open Rdb_data
open Rdb_engine
module Goal = Rdb_core.Goal
module Retrieval = Rdb_core.Retrieval
module Session = Rdb_core.Session

type result = {
  columns : string list;
  rows : Value.t list list;
  summaries : (string * Retrieval.summary) list;
  message : string option;
}

exception Execution_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Execution_error s)) fmt

(* A retrieval that ends in anything but [Completed] delivered a
   truncated row set; silently returning it would corrupt query
   results, so surface the structured status as an executor error. *)
let check_status (summary : Retrieval.summary) =
  match summary.Retrieval.status with
  | Retrieval.Completed -> ()
  | s -> fail "retrieval %s" (Retrieval.status_to_string s)

let find_table db name =
  match Database.find_table db name with
  | Some t -> t
  | None -> fail "no such table: %s" name

(* A host variable outside a WHERE clause (INSERT values, UPDATE
   assignments) resolves like one inside it: unbound raises
   [Predicate.Unbound_param]. *)
let resolve env = function
  | Ast.Lit v -> v
  | Ast.Host h -> (
      match List.assoc_opt h env with
      | Some v -> v
      | None -> raise (Predicate.Unbound_param h))

let operand_to_pred = function
  | Ast.Lit v -> Predicate.Const v
  | Ast.Host h -> Predicate.Param h

let comparison_to_pred = function
  | Ast.Eq -> Predicate.Eq
  | Ast.Ne -> Predicate.Ne
  | Ast.Lt -> Predicate.Lt
  | Ast.Le -> Predicate.Le
  | Ast.Gt -> Predicate.Gt
  | Ast.Ge -> Predicate.Ge

let agg_columns = function
  | Ast.Count_star -> []
  | Ast.Count c | Ast.Sum c | Ast.Avg c | Ast.Min c | Ast.Max c -> [ c ]

let merge_limits a b =
  match (a, b) with
  | Some a, Some b -> Some (Int.min a b)
  | Some _, None -> a
  | None, _ -> b

(* One aggregate over [rows]; [col] resolves a column to its position. *)
let aggregate ~col rows agg =
  let non_null c =
    let i = col c in
    List.filter (fun v -> not (Value.is_null v)) (List.map (fun r -> Row.get r i) rows)
  in
  let numeric c = List.filter_map Value.as_float (non_null c) in
  (* the first of the values [keep] prefers over every later one *)
  let extremum keep c =
    match non_null c with
    | [] -> Value.Null
    | v :: rest ->
        List.fold_left (fun a b -> if keep (Value.compare b a) then b else a) v rest
  in
  match agg with
  | Ast.Count_star -> Value.int (List.length rows)
  | Ast.Count c -> Value.int (List.length (non_null c))
  | Ast.Sum c -> (
      match numeric c with
      | [] -> Value.Null
      | xs ->
          let s = List.fold_left ( +. ) 0.0 xs in
          if Float.is_integer s then Value.int (int_of_float s) else Value.float s)
  | Ast.Avg c -> (
      match numeric c with
      | [] -> Value.Null
      | xs -> Value.float (List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)))
  | Ast.Min c -> extremum (fun d -> d < 0) c
  | Ast.Max c -> extremum (fun d -> d > 0) c

module Value_rows = Set.Make (struct
  type t = Value.t list

  let compare = List.compare Value.compare
end)

(* What both SELECT paths do once the rows are retrieved (and, for a
   join, sorted): aggregate or project, then DISTINCT, then LIMIT.
   DISTINCT keeps the first of each duplicate, so the delivered order
   — an ORDER BY — survives it, and the LIMIT keeps the right rows.
   [col] resolves a column name to its position in [rows]. *)
let select_output (sel : Ast.select) ~col ~limit rows =
  let out =
    match sel.Ast.projection with
    | Ast.Aggs aggs -> [ List.map (fun (a, _) -> aggregate ~col rows a) aggs ]
    | Ast.Star -> List.map Array.to_list rows
    | Ast.Cols cs ->
        let ids = List.map col cs in
        List.map (fun row -> List.map (Row.get row) ids) rows
  in
  let out =
    if not sel.Ast.distinct then out
    else
      List.rev
        (snd
           (List.fold_left
              (fun (seen, kept) r ->
                if Value_rows.mem r seen then (seen, kept)
                else (Value_rows.add r seen, r :: kept))
              (Value_rows.empty, []) out))
  in
  match limit with Some n -> List.filteri (fun i _ -> i < n) out | None -> out

let projection_columns schema (sel : Ast.select) =
  match sel.Ast.projection with
  | Ast.Star -> List.map (fun c -> c.Schema.name) (Schema.columns schema)
  | Ast.Cols cs -> cs
  | Ast.Aggs aggs -> List.sort_uniq compare (List.concat_map (fun (a, _) -> agg_columns a) aggs)

(* The node immediately controlling this select's retrieval (§4).
   DISTINCT and aggregates sit between the retrieval and any LIMIT —
   they need every qualifying row first — so they decide before it. *)
let goal_context_of_select db (sel : Ast.select) ~outer =
  if sel.Ast.distinct then Some Goal.Sort
  else begin
    match (sel.Ast.projection, sel.Ast.limit) with
    | Ast.Aggs _, _ -> Some Goal.Aggregate
    | (Ast.Star | Ast.Cols _), Some n -> Some (Goal.Limit n)
    | (Ast.Star | Ast.Cols _), None ->
        if sel.Ast.order_by <> [] then begin
          (* A SORT node exists only if no index delivers the
             order. *)
          let table = find_table db sel.Ast.table in
          let provided =
            List.exists
              (fun idx -> Table.index_provides_order idx ~order:sel.Ast.order_by)
              (Table.indexes table)
          in
          if provided then outer else Some Goal.Sort
        end
        else outer
  end

(* Resolve subqueries innermost-first, turning the condition into an
   engine predicate.  Summaries accumulate in execution order. *)
let rec cond_to_predicate db env config summaries cond =
  match cond with
  | Ast.C_true -> Predicate.True
  | Ast.C_false -> Predicate.False
  | Ast.C_cmp (c, op, o) -> Predicate.Cmp (c, comparison_to_pred op, operand_to_pred o)
  | Ast.C_cmp_col (a, op, b) -> Predicate.Cmp_col (a, comparison_to_pred op, b)
  | Ast.C_between (c, a, b) -> Predicate.Between (c, operand_to_pred a, operand_to_pred b)
  | Ast.C_in_list (c, os) -> Predicate.In_list (c, List.map operand_to_pred os)
  | Ast.C_like (c, p) -> Predicate.Like (c, p)
  | Ast.C_is_null c -> Predicate.Is_null c
  | Ast.C_is_not_null c -> Predicate.Is_not_null c
  | Ast.C_and cs -> Predicate.And (List.map (cond_to_predicate db env config summaries) cs)
  | Ast.C_or cs -> Predicate.Or (List.map (cond_to_predicate db env config summaries) cs)
  | Ast.C_not c -> Predicate.Not (cond_to_predicate db env config summaries c)
  | Ast.C_in_select (c, sub) ->
      let values = run_scalar_subquery db env config summaries sub ~outer:None () in
      Predicate.In_list (c, List.map (fun v -> Predicate.Const v) values)
  | Ast.C_exists sub ->
      (* One row is enough; the LIMIT is imposed at execution so the
         goal context is still the controlling EXISTS node (§4). *)
      let values =
        run_scalar_subquery db env config summaries sub ~outer:(Some Goal.Exists)
          ~force_limit:1 ()
      in
      if values <> [] then Predicate.True else Predicate.False

and run_scalar_subquery db env config summaries sub ~outer ?force_limit () =
  let res = run_select db env config summaries sub ~outer ?force_limit () in
  let values =
    List.map
      (function
        | [ v ] -> v
        | row -> fail "subquery must produce one column, got %d" (List.length row))
      res
  in
  values

(* Run a select, returning projected value rows; pushes its retrieval
   summary onto [summaries]. *)
and run_select db env config summaries (sel : Ast.select) ~outer ?force_limit () =
  match sel.Ast.joined with
  | Some b_name -> run_join db env config summaries sel b_name ?force_limit ()
  | None -> run_single db env config summaries sel ~outer ?force_limit ()

and run_single db env config summaries (sel : Ast.select) ~outer ?force_limit () =
  let table = find_table db sel.Ast.table in
  let schema = Table.schema table in
  let restriction =
    match sel.Ast.where with
    | None -> Predicate.True
    | Some c -> cond_to_predicate db env config summaries c
  in
  let context = goal_context_of_select db sel ~outer in
  let proj_cols = projection_columns schema sel in
  List.iter
    (fun c -> if not (Schema.mem schema c) then fail "unknown column %s" c)
    (proj_cols @ sel.Ast.order_by @ Predicate.columns restriction);
  let limit = merge_limits sel.Ast.limit force_limit in
  (* DISTINCT and aggregates need every qualifying row before their
     LIMIT; only a forced limit (EXISTS: one row is enough) reaches the
     retrieval. *)
  let needs_post = sel.Ast.distinct || (match sel.Ast.projection with Ast.Aggs _ -> true | _ -> false) in
  let req =
    Retrieval.request ~env ?explicit_goal:sel.Ast.optimize ?context
      ~order_by:sel.Ast.order_by ~projection:proj_cols restriction
  in
  let rows, summary =
    Retrieval.run ?config ?limit:(if needs_post then force_limit else limit) table req
  in
  summaries := !summaries @ [ (sel.Ast.table, summary) ];
  check_status summary;
  select_output sel ~col:(Schema.index_of schema) ~limit rows

(* --- two-table joins ------------------------------------------------- *)

(* Rename every column reference of a bound single-table predicate. *)
and rename_predicate f pred =
  let open Predicate in
  let rec go = function
    | (True | False) as t -> t
    | Cmp (c, op, o) -> Cmp (f c, op, o)
    | Cmp_col (a, op, b) -> Cmp_col (f a, op, f b)
    | Between (c, a, b) -> Between (f c, a, b)
    | In_list (c, os) -> In_list (f c, os)
    | Is_null c -> Is_null (f c)
    | Is_not_null c -> Is_not_null (f c)
    | Like (c, p) -> Like (f c, p)
    | And ts -> And (List.map go ts)
    | Or ts -> Or (List.map go ts)
    | Not x -> Not (go x)
  in
  go pred

(* A two-table inner join executed as the paper's "iterative execution
   of query subplans" (§1): the outer table is retrieved once, and the
   inner table is probed with a *parameterized* retrieval per distinct
   join value — each probe is a fresh dynamic decision (per-iteration
   strategy choice, empty-range cancellation, adaptive index
   pre-ordering).  Probes are memoized per join value. *)
and run_join db env config summaries (sel : Ast.select) b_name ?force_limit () =
  let a_name = sel.Ast.table in
  let ta = find_table db a_name in
  let tb = find_table db b_name in
  if a_name = b_name then fail "self-joins need distinct table names";
  let sa = Table.schema ta and sb = Table.schema tb in
  let schema = joined_schema ~sa ~sb ~a_name ~b_name in
  (* Canonicalize a (possibly qualified) column to "TABLE.COL". *)
  let canon col =
    match String.index_opt col '.' with
    | Some i ->
        let t = String.sub col 0 i and c = String.sub col (i + 1) (String.length col - i - 1) in
        if t = a_name && Schema.mem sa c then a_name ^ "." ^ c
        else if t = b_name && Schema.mem sb c then b_name ^ "." ^ c
        else fail "unknown column %s" col
    | None -> (
        match (Schema.mem sa col, Schema.mem sb col) with
        | true, false -> a_name ^ "." ^ col
        | false, true -> b_name ^ "." ^ col
        | true, true -> fail "ambiguous column %s (qualify it)" col
        | false, false -> fail "unknown column %s" col)
  in
  let strip prefix col =
    let p = prefix ^ "." in
    let lp = String.length p in
    if String.length col > lp && String.sub col 0 lp = p then
      String.sub col lp (String.length col - lp)
    else col
  in
  let side col =
    if String.length col > String.length a_name && String.sub col 0 (String.length a_name + 1) = a_name ^ "." then `A
    else `B
  in
  (* Build the canonical predicate (subqueries resolve first). *)
  let restriction =
    match sel.Ast.where with
    | None -> Predicate.True
    | Some c ->
        rename_predicate canon
          (Predicate.bind (cond_to_predicate db env config summaries c) env)
  in
  let restriction = Predicate.simplify restriction in
  let rows =
    if restriction = Predicate.False then []
    else begin
      let conjuncts =
        match restriction with Predicate.And ts -> ts | Predicate.True -> [] | t -> [ t ]
      in
      let join_cond = ref None in
      let outer = ref [] and inner = ref [] and post = ref [] in
      List.iter
        (fun conj ->
          let sides = List.sort_uniq compare (List.map side (Predicate.columns conj)) in
          match (conj, sides) with
          | _, [ `A ] -> outer := conj :: !outer
          | _, [ `B ] -> inner := conj :: !inner
          | Predicate.Cmp_col (x, Predicate.Eq, y), [ `A; `B ] when !join_cond = None ->
              let a_col, b_col = if side x = `A then (x, y) else (y, x) in
              join_cond := Some (strip a_name a_col, strip b_name b_col)
          | _, [] -> outer := conj :: !outer
          | _ -> post := conj :: !post)
        conjuncts;
      let outer_pred =
        Predicate.simplify
          (Predicate.And (List.rev_map (rename_predicate (strip a_name)) !outer))
      in
      let inner_pred =
        Predicate.simplify
          (Predicate.And (List.rev_map (rename_predicate (strip b_name)) !inner))
      in
      let post_pred = Predicate.simplify (Predicate.And (List.rev !post)) in
      (* Outer retrieval: one dynamic run, driven as a cursor. *)
      let outer = Retrieval.open_ ?config ta (Retrieval.request ~env outer_pred) in
      let close_outer () =
        let s = Retrieval.close outer in
        summaries := !summaries @ [ (a_name, s) ];
        check_status s
      in
      (* Inner probes: one parameterized retrieval per distinct join
         value, memoized. *)
      let probe_cost = ref 0.0 and probe_rows = ref 0 in
      let probes = ref 0 and hits = ref 0 in
      let last_tactic = ref Retrieval.Static_tscan and last_goal = ref Goal.Total_time in
      let last_policy = ref (Retrieval.policy_description Retrieval.Static_tscan) in
      let cache : (Value.t, Row.t list) Hashtbl.t = Hashtbl.create 64 in
      let probe v =
        match Hashtbl.find_opt cache v with
        | Some rows ->
            incr hits;
            rows
        | None ->
            incr probes;
            let pred =
              match !join_cond with
              | Some (_, b_col) ->
                  let key = Predicate.Cmp (b_col, Predicate.Eq, Predicate.Const v) in
                  Predicate.simplify (Predicate.And [ inner_pred; key ])
              | None -> inner_pred
            in
            let rows, s = Retrieval.run ?config tb (Retrieval.request ~env pred) in
            check_status s;
            probe_cost := !probe_cost +. s.Retrieval.total_cost;
            probe_rows := !probe_rows + s.Retrieval.rows_delivered;
            last_tactic := s.Retrieval.tactic;
            last_goal := s.Retrieval.goal;
            last_policy := s.Retrieval.policy;
            Hashtbl.replace cache v rows;
            rows
      in
      (* Combined rows pass the post-filter on the combined schema as
         they are built.  With no ORDER BY, DISTINCT or aggregate the
         select keeps the first [n] of a LIMIT, so the join probes as it
         fetches and stops both once they are in; otherwise every outer
         row is retrieved before the first probe. *)
      let wanted =
        match sel.Ast.projection with
        | Ast.Star | Ast.Cols _ when sel.Ast.order_by = [] && not sel.Ast.distinct ->
            merge_limits sel.Ast.limit force_limit
        | _ -> None
      in
      let passes =
        match post_pred with
        | Predicate.True -> fun _ -> true
        | p -> Predicate.test (Predicate.compile p schema)
      in
      let kept = ref [] and n_kept = ref 0 in
      let full () = match wanted with Some n -> !n_kept >= n | None -> false in
      let keep a_row b_row =
        if not (full ()) then begin
          let row = Array.append a_row b_row in
          if passes row then begin
            kept := row :: !kept;
            incr n_kept
          end
        end
      in
      let join_pos = Option.map (fun (a_col, _) -> Schema.index_of sa a_col) !join_cond in
      let join_row (a_row : Row.t) =
        match Option.map (Row.get a_row) join_pos with
        | Some Value.Null -> () (* NULL never joins *)
        | Some v -> List.iter (keep a_row) (probe v)
        | None -> List.iter (keep a_row) (probe Value.Null)
      in
      (match wanted with
      | Some _ ->
          let rec fetch_and_join () =
            if not (full ()) then begin
              match Retrieval.fetch outer with
              | Some a_row ->
                  join_row a_row;
                  fetch_and_join ()
              | None -> ()
            end
          in
          (* A failed probe still closes the outer cursor; [close] is
             idempotent, so [close_outer] reads the same summary. *)
          Fun.protect ~finally:(fun () -> ignore (Retrieval.close outer)) fetch_and_join;
          close_outer ()
      | None ->
          let outer_rows = List.map snd (Retrieval.drain_pairs outer) in
          close_outer ();
          List.iter join_row outer_rows);
      (* Synthesize an aggregate summary for the probe side. *)
      let probe_summary =
        {
          Retrieval.rows_delivered = !probe_rows;
          total_cost = !probe_cost;
          cost_to_first_row = None;
          tactic = !last_tactic;
          goal = !last_goal;
          goal_provenance =
            Printf.sprintf "per-iteration dynamic probes (%d probes, %d memoized)" !probes
              !hits;
          policy = !last_policy;
          status = Retrieval.Completed;
          trace = [];
        }
      in
      summaries := !summaries @ [ (b_name, probe_summary) ];
      List.rev !kept
    end
  in
  let col c = Schema.index_of schema (canon c) in
  let rows =
    match sel.Ast.order_by with
    | [] -> rows
    | cs -> List.stable_sort (Row.compare_at (Array.of_list (List.map col cs))) rows
  in
  select_output sel ~col ~limit:(merge_limits sel.Ast.limit force_limit) rows

and joined_schema ~sa ~sb ~a_name ~b_name =
  Schema.make
    (List.map
       (fun c -> Schema.col ~nullable:true (a_name ^ "." ^ c.Schema.name) c.Schema.ty)
       (Schema.columns sa)
    @ List.map
        (fun c -> Schema.col ~nullable:true (b_name ^ "." ^ c.Schema.name) c.Schema.ty)
        (Schema.columns sb))

(* Materialize the qualifying (rid, row) pairs *before* mutating —
   classic Halloween protection: an UPDATE that moves a row within an
   index it is scanned through must not see it twice. *)
let collect_pairs db env config (tbl : Table.t) where summaries =
  let restriction =
    match where with
    | None -> Predicate.True
    | Some c -> cond_to_predicate db env config summaries c
  in
  List.iter
    (fun c ->
      if not (Schema.mem (Table.schema tbl) c) then fail "unknown column %s" c)
    (Predicate.columns restriction);
  let req = Retrieval.request ~env restriction in
  let cursor = Retrieval.open_ ?config tbl req in
  let pairs = Retrieval.drain_pairs cursor in
  let summary = Retrieval.close cursor in
  summaries := !summaries @ [ (Table.name tbl, summary) ];
  check_status summary;
  pairs

let header_of db sel =
  match sel.Ast.projection with
  | Ast.Aggs aggs -> List.map snd aggs
  | Ast.Cols cs -> cs
  | Ast.Star -> (
      let cols name prefix =
        let schema = Table.schema (find_table db name) in
        List.map (fun c -> prefix ^ c.Schema.name) (Schema.columns schema)
      in
      match sel.Ast.joined with
      | None -> cols sel.Ast.table ""
      | Some b -> cols sel.Ast.table (sel.Ast.table ^ ".") @ cols b (b ^ "."))

(* EXPLAIN ANALYZE annotations: the plan already ran (the dynamic
   optimizer *is* execution), so pair every estimate in the trace with
   the actual it turned out to have, and surface the per-span actuals
   recorded by the retrieval. *)
let analyze_lines (s : Retrieval.summary) =
  let module T = Rdb_exec.Trace in
  let actuals = Hashtbl.create 4 in
  List.iter
    (function
      | T.Scan_completed { index; kept; scanned } ->
          Hashtbl.replace actuals index (kept, scanned)
      | _ -> ())
    s.Retrieval.trace;
  let est_lines =
    List.filter_map
      (function
        | T.Feedback_applied { index; raw; corrected } ->
            (* Feedback corrections (DESIGN.md §13): show what the raw
               descent said next to what the optimizer actually used. *)
            Some
              (Printf.sprintf
                 "  analyze: %s feedback correction: raw estimate ~%.0f, used ~%.0f \
                  (%.2fx learned)"
                 index raw corrected
                 (corrected /. Float.max 1.0 raw))
        | T.Estimated { index; estimate; exact; _ } -> (
            match Hashtbl.find_opt actuals index with
            | Some (kept, scanned) ->
                let actual = float_of_int (max scanned 1) in
                let est = Float.max 1.0 estimate in
                let err = Float.max (est /. actual) (actual /. est) in
                Some
                  (Printf.sprintf
                     "  analyze: %s estimated ~%.0f rids%s, actual %d scanned / %d kept \
                      (error %.2fx)"
                     index estimate
                     (if exact then " (exact)" else "")
                     scanned kept err)
            | None ->
                Some
                  (Printf.sprintf "  analyze: %s estimated ~%.0f rids, scan not completed"
                     index estimate))
        | _ -> None)
      s.Retrieval.trace
  in
  let span_lines =
    List.filter_map
      (function
        | T.Span_end { span; cost; rows } ->
            Some (Printf.sprintf "  analyze: span %s: actual cost %.2f, %d rows" span cost rows)
        | _ -> None)
      s.Retrieval.trace
  in
  let first =
    match s.Retrieval.cost_to_first_row with
    | Some c -> Printf.sprintf ", first row at %.2f" c
    | None -> ""
  in
  est_lines @ span_lines
  @ [
      Printf.sprintf "  analyze: %d rows, total cost %.2f%s (%s)" s.Retrieval.rows_delivered
        s.Retrieval.total_cost first
        (Retrieval.status_to_string s.Retrieval.status);
    ]

let execute ?(env = []) ?config db stmt =
  match stmt with
  | Ast.Select sel ->
      let summaries = ref [] in
      let rows = run_select db env config summaries sel ~outer:None () in
      { columns = header_of db sel; rows; summaries = !summaries; message = None }
  | Ast.Explain { analyze; query = sel } ->
      let summaries = ref [] in
      let _rows = run_select db env config summaries sel ~outer:None () in
      let lines =
        List.concat_map
          (fun (tbl, (s : Retrieval.summary)) ->
            (Printf.sprintf "retrieval of %s: goal %s (%s), tactic %s" tbl
               (Goal.to_string s.Retrieval.goal)
               s.Retrieval.goal_provenance
               (Retrieval.tactic_to_string s.Retrieval.tactic))
            :: ("  policy: " ^ s.Retrieval.policy)
            :: List.map
                 (fun e -> "  " ^ Rdb_exec.Trace.event_to_string e)
                 s.Retrieval.trace
            @ [ Printf.sprintf "  total cost %.2f, %d rows" s.Retrieval.total_cost
                  s.Retrieval.rows_delivered ]
            @ (if analyze then analyze_lines s else []))
          !summaries
      in
      {
        columns = [ "plan" ];
        rows = List.map (fun l -> [ Value.str l ]) lines;
        summaries = !summaries;
        message = None;
      }
  | Ast.Create_table (name, defs) ->
      let schema =
        Schema.make
          (List.map
             (fun d ->
               Schema.col ~nullable:d.Ast.col_nullable d.Ast.col_name d.Ast.col_type)
             defs)
      in
      let _ = Database.create_table db ~name schema in
      { columns = []; rows = []; summaries = []; message = Some ("table " ^ name ^ " created") }
  | Ast.Create_index { index; on_table; columns } ->
      let table = find_table db on_table in
      let _ = Table.create_index table ~name:index ~columns () in
      { columns = []; rows = []; summaries = []; message = Some ("index " ^ index ^ " created") }
  | Ast.Delete { from; where } ->
      let tbl = find_table db from in
      let summaries = ref [] in
      let pairs = collect_pairs db env config tbl where summaries in
      let deleted =
        List.fold_left
          (fun acc (rid, _) -> if Table.delete tbl rid then acc + 1 else acc)
          0 pairs
      in
      {
        columns = [];
        rows = [];
        summaries = !summaries;
        message = Some (Printf.sprintf "%d row(s) deleted from %s" deleted from);
      }
  | Ast.Update { table; assignments; where } ->
      let tbl = find_table db table in
      let schema = Table.schema tbl in
      let resolved =
        List.map
          (fun (col, o) ->
            match Schema.find schema col with
            | Some i -> (i, resolve env o)
            | None -> fail "unknown column %s" col)
          assignments
      in
      let summaries = ref [] in
      let pairs = collect_pairs db env config tbl where summaries in
      let updated =
        List.fold_left
          (fun acc (rid, row) ->
            let fresh = Array.copy row in
            List.iter (fun (i, v) -> fresh.(i) <- v) resolved;
            if Table.update tbl rid fresh then acc + 1 else acc)
          0 pairs
      in
      {
        columns = [];
        rows = [];
        summaries = !summaries;
        message = Some (Printf.sprintf "%d row(s) updated in %s" updated table);
      }
  | Ast.Insert { into; rows } ->
      let table = find_table db into in
      let resolve = resolve env in
      List.iter
        (fun row -> ignore (Table.insert table (Array.of_list (List.map resolve row))))
        rows;
      {
        columns = [];
        rows = [];
        summaries = [];
        message = Some (Printf.sprintf "%d row(s) inserted into %s" (List.length rows) into);
      }
  | Ast.Check_table name ->
      let table = find_table db name in
      let rep =
        try Check.run table
        with Rdb_storage.Fault.Injected f ->
          fail "CHECK %s aborted: heap unreadable (%s)" name (Rdb_storage.Fault.describe f)
      in
      let health = Table.health table in
      let rows =
        List.map
          (fun (r : Check.index_report) ->
            [
              Value.str r.Check.ir_index;
              Value.int r.Check.ir_entries;
              Value.int r.Check.ir_missing;
              Value.int r.Check.ir_phantom;
              Value.str (Check.damage_to_string r);
              Value.str (Health.state_to_string (Health.state health r.Check.ir_index));
            ])
          rep.Check.indexes
      in
      let n_clean = List.length (List.filter Check.clean rep.Check.indexes) in
      {
        columns = [ "index"; "entries"; "missing"; "phantom"; "status"; "health" ];
        rows;
        summaries = [];
        message =
          Some
            (Printf.sprintf "checked %s: %d heap rows, %d/%d indexes clean (cost %.0f)"
               name rep.Check.heap_rows n_clean
               (List.length rep.Check.indexes)
               rep.Check.cost);
      }
  | Ast.Repair_table { table = tname; index } ->
      let table = find_table db tname in
      (* Heal corrupt heap pages first: the heap is the ground truth
         every index rebuild copies from, and an unreadable page would
         otherwise abort the consistency check below.  Persistent heap
         faults still abort — a rewrite cannot fix a dead disk. *)
      let heap_rewrites =
        try
          Rdb_storage.Heap_file.rewrite_corrupt_pages (Table.heap table)
            (Table.build_meter table)
        with Rdb_storage.Fault.Injected f ->
          fail "REPAIR %s aborted: heap unreadable (%s)" tname
            (Rdb_storage.Fault.describe f)
      in
      if heap_rewrites > 0 then
        ignore (Health.mark_healthy (Table.health table) Table.heap_structure);
      let heap_note =
        if heap_rewrites > 0 then
          Printf.sprintf "; rewrote %d corrupt heap page(s)" heap_rewrites
        else ""
      in
      let targets =
        match index with
        | Some i -> (
            match Table.find_index table i with
            | Some _ -> [ i ]
            | None -> fail "no such index: %s on %s" i tname)
        | None ->
            (* Every index that is unhealthy or fails the consistency
               check — REPAIR TABLE is "check, then fix what is
               broken". *)
            let health = Table.health table in
            let unhealthy =
              List.filter_map
                (fun idx ->
                  if Health.state health idx.Table.idx_name <> Health.Healthy then
                    Some idx.Table.idx_name
                  else None)
                (Table.indexes table)
            in
            let damaged =
              try
                List.map
                  (fun (r : Check.index_report) -> r.Check.ir_index)
                  (Check.damaged (Check.run table))
              with Rdb_storage.Fault.Injected f ->
                fail "REPAIR %s aborted: heap unreadable (%s)" tname
                  (Rdb_storage.Fault.describe f)
            in
            List.sort_uniq compare (unhealthy @ damaged)
      in
      if targets = [] then
        {
          columns = [];
          rows = [];
          summaries = [];
          message =
            Some
              (if heap_rewrites > 0 then
                 Printf.sprintf "%s: rewrote %d corrupt heap page(s), indexes clean"
                   tname heap_rewrites
               else tname ^ ": nothing to repair");
        }
      else begin
        (* One repair session per index, admitted through the scheduler
           — the same path background repair takes under concurrent
           load, so SQL REPAIR and chaos-time repair cannot diverge. *)
        let sched = Session.create db in
        List.iter
          (fun i -> ignore (Session.submit_repair sched ~label:("repair:" ^ i) table ~index:i))
          targets;
        let report = Session.run sched in
        let rows =
          List.map
            (fun (p : Session.repair_stats) ->
              [
                Value.str p.Session.r_index;
                Value.int p.Session.r_entries;
                Value.str (if p.Session.r_ok then "rebuilt" else "failed");
              ])
            report.Session.repairs
        in
        let ok = List.length (List.filter (fun p -> p.Session.r_ok) report.Session.repairs) in
        {
          columns = [ "index"; "entries"; "result" ];
          rows;
          summaries = [];
          message =
            Some
              (Printf.sprintf "repaired %d/%d index(es) on %s%s" ok (List.length targets)
                 tname heap_note);
        }
      end

let execute_sql ?env ?config db src = execute ?env ?config db (Parser.parse_statement src)
