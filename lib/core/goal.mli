(** Optimization goals and their inference (§4).

    Retrieval is optimized either for total time or for fast delivery
    of the first few records.  The goal for a retrieval node is set by
    the node from the enclosing plan that immediately controls it:
    EXISTS and LIMIT TO n ROWS request fast-first; SORT and aggregates
    request total-time; otherwise the user-specified (OPTIMIZE FOR) or
    default goal applies. *)

type t = Fast_first | Total_time

type controlling_node =
  | Exists
  | Limit of int
  | Sort
  | Aggregate
  | Cursor  (** plain cursor / top-level result delivery *)

val resolve :
  ?explicit:t -> ?context:controlling_node -> default:t -> unit -> t * string
(** Inference first, then the explicit user request, then the default.
    Inference is the paper's rule: [Exists] and [Limit] give
    [Fast_first], [Sort] and [Aggregate] give [Total_time], and
    [Cursor] infers nothing.  Returns the goal and a human-readable
    provenance string.

    Note the paper's precedence: the §4 example sets total-time for
    table B "because of SORT needed for distinct" even under an
    explicit OPTIMIZE FOR TOTAL TIME — the controlling node wins over
    the user request. *)

val to_string : t -> string
