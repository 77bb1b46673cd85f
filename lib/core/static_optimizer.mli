(** The traditional compile-time optimizer baseline [SACL79].

    Mean-point cost estimation, one plan chosen at compile time, run to
    completion with no switching.  Host variables are the Achilles
    heel: at compile time an unbound parameter's selectivity falls back
    to the System-R magic numbers (1/10 for equality, 1/3 for
    inequality), and the chosen strategy is then *frozen* for every
    subsequent execution — exactly the behaviour the paper's §4
    motivating query (AGE >= :A1 with :A1 ∈ {0, 200}) breaks. *)

open Rdb_data
open Rdb_engine
open Rdb_exec

type strategy =
  | P_tscan
  | P_sscan of string  (** index name *)
  | P_fscan of string

type plan = {
  strategy : strategy;
  estimated_cost : float;
  estimated_rows : float;
}

val compile :
  ?projection:string list -> Table.t -> Predicate.t -> env:Predicate.env -> plan
(** [env] holds the parameter values known at compile time — typically
    none; unknown parameters get default selectivities.  [projection]
    is the column set the query must deliver (default: all columns),
    which gates index-only plans. *)

type result = {
  rows : Row.t list;
  cost : float;
  trace : Trace.event list;
}

val execute :
  ?limit:int -> Table.t -> plan -> Predicate.t -> env:Predicate.env -> result
(** Run the frozen plan with the *actual* parameter values.  [limit]
    stops delivery early (the plan itself never switches); raises
    [Invalid_argument] if negative. *)

val drain : ?limit:int -> Tactic.t -> Row.t list
(** Run a static plan's step tactic to completion under
    [Tactic.limit limit] (default: every row) through
    {!Rdb_exec.Driver.drain}, and return the delivered rows in order.
    Static plans arm no degradation ladder: a fault escapes as
    [Fault.Injected].  Shared by {!Static_jscan}. *)

val strategy_to_string : strategy -> string
