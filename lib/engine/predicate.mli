(** Boolean restriction trees.

    The paper optimizes single-table access under a "Boolean
    restriction" — an AND/OR/NOT tree over simple column predicates,
    possibly containing host-language variables (the `:A1` of the §4
    motivating query).  Evaluation uses SQL three-valued logic: a
    comparison with NULL is [Unknown], and a row qualifies only if the
    whole restriction evaluates to [True]. *)

open Rdb_data

type comparison = Eq | Ne | Lt | Le | Gt | Ge

type operand =
  | Const of Value.t
  | Param of string  (** host variable, bound at open-retrieval time *)

type t =
  | True
  | False
  | Cmp of string * comparison * operand
  | Cmp_col of string * comparison * string
      (** column-to-column comparison — same-row attribute comparison
          (the §5 case range estimation cannot serve) and the carrier
          of join conditions in the SQL layer *)
  | Between of string * operand * operand  (** inclusive *)
  | In_list of string * operand list
  | Is_null of string
  | Is_not_null of string
  | Like of string * string  (** pattern with [%] and [_] *)
  | And of t list
  | Or of t list
  | Not of t

type env = (string * Value.t) list
(** Host-variable bindings. *)

exception Unbound_param of string

val bind : t -> env -> t
(** Substitute parameters; raises {!Unbound_param} if one is missing. *)

val params : t -> string list
(** Parameter names, deduplicated, in first-occurrence order. *)

val columns : t -> string list
(** Referenced column names, deduplicated. *)

val is_bound : t -> bool

val eval : t -> Schema.t -> Row.t -> bool
(** Three-valued evaluation collapsed to "qualifies or not".  The
    restriction must be bound and its columns must exist in the
    schema; raises [Unbound_param] / [Not_found] otherwise.

    [eval] and [eval_maybe] are the reference interpreter: they resolve
    every column by name on every call.  The engine's per-row paths
    use {!compile} instead; tests and answer checks keep calling the
    interpreter, so they stay independent of what they check. *)

val eval_maybe : t -> Schema.t -> Row.t -> bool
(** [false] only when the restriction definitely fails ([F]); [true]
    for [T] or [Unknown].  Used to pre-filter on synthetic rows built
    from index keys, where unreferenced columns read as NULL: a row may
    be rejected early only on definite evidence. *)

(** {1 Compiled restrictions}

    A restriction with its columns resolved to positions and its
    operands to constants, once, for a cursor that tests it on every
    row.  Compiling builds one three-valued closure per node of the
    restriction, applied directly to a value array; each leaf reads its
    field with one bounds-checked read (a position outside the array
    reads as NULL), and a comparison of an Int field with an Int
    constant compares ints.  The two compiled types differ only in
    what their positions index:
    - a {!compiled} restriction indexes a row of the schema ({!test}) —
      a heap's stored row is tested where it lies;
    - a {!compiled_key} restriction indexes an index key
      ({!test_key}), and a column outside the key reads as NULL,
      exactly as on {!Rdb_exec.Scan.synthetic_row}.
    They are distinct types, so a key-compiled restriction cannot be
    tested on a row, nor a row-compiled one on a key.

    The result equals {!eval} (the [_maybe] forms equal {!eval_maybe})
    on the corresponding row: NULL gives Unknown, Int and Float compare
    through {!Value.compare}, and LIKE, IN, BETWEEN with NULL bounds and
    column-to-column comparisons keep their semantics (pinned against
    the interpreter by a qcheck property in [test_engine.ml]). *)

type compiled

val compile : t -> Schema.t -> compiled
(** Raises [Invalid_argument] naming the column when the restriction
    references a column the schema lacks, and {!Unbound_param} when it
    is not bound. *)

val test : compiled -> Row.t -> bool
val test_maybe : compiled -> Row.t -> bool

type compiled_key

val compile_key : t -> Schema.t -> key_ids:int array -> compiled_key
(** Compile for index keys whose [i]-th column is schema position
    [key_ids.(i)].  Raises as {!compile} does. *)

val test_key : compiled_key -> Value.t array -> bool
val test_key_maybe : compiled_key -> Value.t array -> bool

val simplify : t -> t
(** Flatten nested And/Or, drop [True]/[False] units, fold constants.
    Does not reorder operands. *)

val to_string : t -> string
val pp : Format.formatter -> t -> unit

(** {1 Convenience constructors} *)

val ( =% ) : string -> Value.t -> t
val ( <% ) : string -> Value.t -> t
val ( <=% ) : string -> Value.t -> t
val ( >% ) : string -> Value.t -> t
val ( >=% ) : string -> Value.t -> t
val between : string -> Value.t -> Value.t -> t
val param_cmp : string -> comparison -> string -> t
