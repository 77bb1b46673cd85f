(** SQL execution on top of the dynamic retrieval engine.

    Single-table SELECTs map directly onto {!Rdb_core.Retrieval};
    uncorrelated subqueries are evaluated innermost-first (an IN
    subquery materializes into a value list, an EXISTS subquery into a
    boolean), each with its own inferred optimization goal — this
    reproduces the §4 three-level example, where the LIMIT TO 2 ROWS
    innermost select runs fast-first while the DISTINCT middle select
    runs total-time.

    EXPLAIN executes the query and reports the dynamic optimizer's
    decisions (tactic, estimates, scan discards, strategy switches):
    with a run-time optimizer the plan *is* the execution history. *)

open Rdb_data
open Rdb_engine

type result = {
  columns : string list;
  rows : Value.t list list;
  summaries : (string * Rdb_core.Retrieval.summary) list;
      (** (table, summary) per retrieval executed, innermost first *)
  message : string option;  (** DDL/DML acknowledgements *)
}

exception Execution_error of string

val execute :
  ?env:Predicate.env ->
  ?config:Rdb_core.Retrieval.config ->
  Database.t ->
  Ast.statement ->
  result

val execute_sql :
  ?env:Predicate.env ->
  ?config:Rdb_core.Retrieval.config ->
  Database.t ->
  string ->
  result
(** Parse and execute. *)

val goal_context_of_select :
  Database.t -> Ast.select -> outer:Rdb_core.Goal.controlling_node option ->
  Rdb_core.Goal.controlling_node option
(** The §4 rule, exposed for tests: the node immediately controlling
    the select's retrieval.  DISTINCT (a SORT) and aggregates need
    every qualifying row, so they control it even under a LIMIT. *)
