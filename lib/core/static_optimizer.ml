open Rdb_btree
open Rdb_data
open Rdb_engine
open Rdb_exec
open Rdb_storage

type strategy = P_tscan | P_sscan of string | P_fscan of string

type plan = { strategy : strategy; estimated_cost : float; estimated_rows : float }

let strategy_to_string = function
  | P_tscan -> "Tscan"
  | P_sscan i -> "Sscan(" ^ i ^ ")"
  | P_fscan i -> "Fscan(" ^ i ^ ")"

(* System-R default selectivities for predicates whose operand is a
   host variable unknown at compile time. *)
let default_selectivity = function
  | Predicate.Eq -> 0.1
  | Predicate.Ne -> 0.9
  | Predicate.Lt | Predicate.Le | Predicate.Gt | Predicate.Ge -> 1.0 /. 3.0

(* Point (mean) selectivity estimate of a restriction against one
   index, multiplying independent conjunct selectivities — the
   industry-standard model the paper criticizes. *)
let rec point_selectivity table meter pred =
  match pred with
  | Predicate.True -> 1.0
  | Predicate.False -> 0.0
  | Predicate.Not x -> 1.0 -. point_selectivity table meter x
  | Predicate.And ts ->
      List.fold_left (fun acc x -> acc *. point_selectivity table meter x) 1.0 ts
  | Predicate.Or ts ->
      (* independence: 1 - prod (1 - s_i) *)
      1.0
      -. List.fold_left
           (fun acc x -> acc *. (1.0 -. point_selectivity table meter x))
           1.0 ts
  | Predicate.Cmp (_, op, Predicate.Param _) -> default_selectivity op
  | Predicate.Between (_, Predicate.Param _, _) | Predicate.Between (_, _, Predicate.Param _)
    ->
      0.25
  | Predicate.In_list (col, os) ->
      let eq v = Predicate.Cmp (col, Predicate.Eq, v) in
      Rdb_util.Stats.clamp
        (List.fold_left (fun acc o -> acc +. point_selectivity table meter (eq o)) 0.0 os)
        ~lo:0.0 ~hi:1.0
  | Predicate.Cmp_col (_, op, _) -> default_selectivity op
  | Predicate.Is_null _ -> 0.05
  | Predicate.Is_not_null _ -> 0.95
  | Predicate.Like _ -> 0.1
  | (Predicate.Cmp (col, _, Predicate.Const _) | Predicate.Between (col, _, _)) as leaf -> (
      (* Bound leaf: use the index histogram if one leads on [col]. *)
      let leading =
        List.find_opt
          (fun idx -> match idx.Table.key_columns with c :: _ -> c = col | [] -> false)
          (Table.indexes table)
      in
      match leading with
      | None -> (
          match leaf with
          | Predicate.Cmp (_, op, _) -> default_selectivity op
          | _ -> 0.25)
      | Some idx ->
          let extraction = Range_extract.for_index leaf idx in
          if not extraction.Range_extract.bounded then 0.3
          else begin
            let card = Btree.cardinality idx.Table.tree in
            if card = 0 then 0.0
            else begin
              let r = Estimate.ranges idx.Table.tree meter extraction.Range_extract.ranges in
              Rdb_util.Stats.clamp
                (r.Estimate.estimate /. float_of_int card)
                ~lo:0.0 ~hi:1.0
            end
          end)

(* Compile-time binding: substitute known parameters, leave the rest. *)
let partial_bind pred env =
  let sub = function
    | Predicate.Param p as o -> (
        match List.assoc_opt p env with Some v -> Predicate.Const v | None -> o)
    | o -> o
  in
  let rec go = function
    | (Predicate.True | Predicate.False | Predicate.Is_null _ | Predicate.Is_not_null _
      | Predicate.Like _) as t ->
        t
    | Predicate.Cmp (c, op, o) -> Predicate.Cmp (c, op, sub o)
    | Predicate.Cmp_col _ as t -> t
    | Predicate.Between (c, a, b) -> Predicate.Between (c, sub a, sub b)
    | Predicate.In_list (c, os) -> Predicate.In_list (c, List.map sub os)
    | Predicate.And ts -> Predicate.And (List.map go ts)
    | Predicate.Or ts -> Predicate.Or (List.map go ts)
    | Predicate.Not x -> Predicate.Not (go x)
  in
  go pred

let compile ?projection table pred ~env =
  let meter = Cost.create () in
  let pred = Predicate.simplify (partial_bind pred env) in
  let card = float_of_int (Table.row_count table) in
  let sel = point_selectivity table meter pred in
  let est_rows = sel *. card in
  let tscan = (P_tscan, Cost_model.tscan_cost table) in
  (* Self-sufficiency must account for every column the query needs,
     not just the restriction: SELECT * can never be index-only. *)
  let needed =
    (match projection with
    | Some cols -> cols
    | None ->
        List.map (fun c -> c.Rdb_data.Schema.name)
          (Rdb_data.Schema.columns (Table.schema table)))
    @ Predicate.columns pred
  in
  let index_plans =
    List.filter_map
      (fun idx ->
        (* Per-index selectivity of the conjuncts this index absorbs,
           times default treatment of the rest — here simply the whole
           restriction's selectivity for the fetch count and the
           absorbed range for the scan length. *)
        let bound_part =
          (* Range over params still unbound: use defaults on full
             index. *)
          if Predicate.is_bound pred then begin
            let extraction = Range_extract.for_index pred idx in
            if extraction.Range_extract.bounded then
              Some
                (let card = Btree.cardinality idx.Table.tree in
                 if card = 0 then 0.0
                 else begin
                   let r =
                     Estimate.ranges idx.Table.tree meter extraction.Range_extract.ranges
                   in
                   Rdb_util.Stats.clamp
                     (r.Estimate.estimate /. float_of_int card)
                     ~lo:0.0 ~hi:1.0
                 end)
            else None
          end
          else begin
            (* Unbound: credit the index with the default selectivity
               of the conjuncts naming its leading column. *)
            let leading = List.hd idx.Table.key_columns in
            let conjuncts =
              match pred with Predicate.And ts -> ts | t -> [ t ]
            in
            let sels =
              List.filter_map
                (fun conj ->
                  match conj with
                  | Predicate.Cmp (c, op, _) when c = leading ->
                      Some (default_selectivity op)
                  | Predicate.Between (c, _, _) when c = leading -> Some 0.25
                  | _ -> None)
                conjuncts
            in
            match sels with [] -> None | s -> Some (List.fold_left ( *. ) 1.0 s)
          end
        in
        match bound_part with
        | None -> None
        | Some range_sel ->
            let entries = range_sel *. card in
            let scan_cost = Cost_model.index_scan_cost idx ~entries in
            if Table.index_covers idx ~columns:needed then
              Some (P_sscan idx.Table.idx_name, scan_cost)
            else begin
              let fetch_cost = Cost_model.key_order_fetch_cost table idx ~entries in
              Some (P_fscan idx.Table.idx_name, scan_cost +. fetch_cost)
            end)
      (Table.indexes table)
  in
  let strategy, estimated_cost =
    List.fold_left
      (fun (bs, bc) (s, c) -> if c < bc then (s, c) else (bs, bc))
      tscan index_plans
  in
  { strategy; estimated_cost; estimated_rows = est_rows }

type result = { rows : Row.t list; cost : float; trace : Trace.event list }

(* A static plan arms no degradation ladder: the first fault stops the
   driver and escapes as the exception it was (static paths run with no
   injector installed).  Nothing drops a final stage's fetch cache, so
   it lives for the whole run. *)
let drain ?(limit = max_int) step =
  let rows = ref [] in
  let stop = { Driver.on_fault = (fun _ ~consec:_ -> Driver.Stop) } in
  match
    Driver.drain (Driver.make stop) (Tactic.limit limit step) ~on_row:(fun _ row ->
        rows := row :: !rows)
  with
  | Ok () -> List.rev !rows
  | Error f -> raise (Fault.Injected f)

let execute ?limit table plan pred ~env =
  let meter = Cost.create () in
  let trace = Trace.create () in
  let restriction = Predicate.simplify (Predicate.bind pred env) in
  let step =
    match plan.strategy with
    | P_tscan ->
        let t = Tscan.create table meter restriction in
        fun () -> Tscan.step t
    | P_sscan name | P_fscan name -> (
        match Table.find_index table name with
        | None -> invalid_arg ("Static_optimizer.execute: no index " ^ name)
        | Some idx -> (
            let extraction = Range_extract.for_index restriction idx in
            let cand =
              {
                Scan.idx;
                ranges = extraction.Range_extract.ranges;
                residual = extraction.Range_extract.residual;
                est = 0.0;
                est_exact = false;
              }
            in
            match plan.strategy with
            | P_sscan _ ->
                let s = Sscan.create table meter cand ~restriction in
                fun () -> Sscan.step s
            | P_fscan _ | P_tscan ->
                let f = Fscan.create table meter cand ~restriction in
                fun () -> Fscan.step f))
  in
  let rows = drain ?limit step in
  Trace.emit trace
    (Trace.Retrieval_done { rows = List.length rows; cost = Cost.total meter });
  { rows; cost = Cost.total meter; trace = Trace.events trace }
