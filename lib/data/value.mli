(** Typed column values.

    The engine is dynamically typed at the row level (like Rdb's
    runtime record format): every cell is a {!t}.  NULL ordering
    follows the usual index convention — NULL sorts before every
    non-NULL value — while three-valued logic for comparisons is
    handled in the predicate evaluator, not here. *)

type t =
  | Null
  | Int of int
  | Float of float
  | Str of string

type ty = T_int | T_float | T_str

val type_of : t -> ty option
(** [None] for [Null]. *)

val compare : t -> t -> int
(** Total order: Null < Int/Float (numerics compare by value) < Str.
    Int and Float compare numerically against each other so mixed
    numeric columns behave. *)

val equal : t -> t -> bool

val is_null : t -> bool

val to_string : t -> string

(** {1 Convenience constructors} *)

val int : int -> t
val float : float -> t
val str : string -> t

(** {1 Coercions} *)

val as_int : t -> int option
val as_float : t -> float option
(** [as_float] also coerces [Int]. *)

(** {1 Key helpers} *)

val succ_approx : t -> t
(** Smallest representable value strictly greater than [v] for ints and
    strings; for floats uses the next representable float.  Used to
    turn exclusive range bounds into inclusive ones. *)
