(** Abstract syntax of the SQL subset.

    Enough surface to express the paper's examples end-to-end: single-
    table SELECTs with rich WHERE clauses, host variables, DISTINCT,
    ORDER BY, LIMIT TO n ROWS, EXISTS / IN subqueries (uncorrelated),
    aggregates, and the extended OPTIMIZE FOR clause — plus DDL/DML for
    the shell. *)

open Rdb_data

type operand = Lit of Value.t | Host of string

type comparison = Eq | Ne | Lt | Le | Gt | Ge

type cond =
  | C_true
  | C_false
  | C_cmp of string * comparison * operand
  | C_cmp_col of string * comparison * string
  | C_between of string * operand * operand
  | C_in_list of string * operand list
  | C_in_select of string * select
  | C_exists of select
  | C_like of string * string
  | C_is_null of string
  | C_is_not_null of string
  | C_and of cond list
  | C_or of cond list
  | C_not of cond

and agg = Count_star | Count of string | Sum of string | Avg of string | Min of string | Max of string

and projection = Star | Cols of string list | Aggs of (agg * string) list
    (** aggregates carry their display name *)

and select = {
  distinct : bool;
  projection : projection;
  table : string;
  joined : string option;
      (** second FROM table: an inner join driven by repeated
          parameterized retrieval (columns may be qualified [T.COL]) *)
  where : cond option;
  order_by : string list;
  limit : int option;
  optimize : Rdb_core.Goal.t option;
}

type column_def = { col_name : string; col_type : Value.ty; col_nullable : bool }

type statement =
  | Select of select
  | Explain of { analyze : bool; query : select }
      (** [analyze]: annotate the plan with actual per-node costs and
          row counts next to the estimates (EXPLAIN ANALYZE) *)
  | Create_table of string * column_def list
  | Create_index of { index : string; on_table : string; columns : string list }
  | Insert of { into : string; rows : operand list list }
  | Delete of { from : string; where : cond option }
  | Update of {
      table : string;
      assignments : (string * operand) list;
      where : cond option;
    }
  | Check_table of string
      (** CHECK TABLE t: cross-validate every index against the heap *)
  | Repair_table of { table : string; index : string option }
      (** REPAIR TABLE t (every damaged index) or REPAIR INDEX i ON t:
          online rebuild through the session scheduler *)

val agg_name : agg -> string

val select_to_string : select -> string
(** Render back to parseable SQL: [Parser.parse_select (select_to_string s)]
    reproduces [s] (modulo float formatting).  Used by EXPLAIN output
    and pinned by a round-trip property test. *)

val statement_to_string : statement -> string

