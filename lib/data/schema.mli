(** Table schemas: ordered, named, typed columns. *)

type column = {
  name : string;
  ty : Value.ty;
  nullable : bool;
}

type t

val make : column list -> t
(** Raises [Invalid_argument] on duplicate or empty column names. *)

val columns : t -> column list
val arity : t -> int
val index_of : t -> string -> int
(** Position of a column by name.  Raises [Not_found]. *)

val find : t -> string -> int option
val mem : t -> string -> bool

val validate_row : t -> Value.t array -> (unit, string) result
(** Arity, type and nullability check. *)

val col : ?nullable:bool -> string -> Value.ty -> column
(** Convenience constructor; [nullable] defaults to false. *)
