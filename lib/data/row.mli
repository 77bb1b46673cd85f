(** Rows.

    A row is a [Value.t array] matching a schema.  Rows are values:
    a row handed out by the heap ({!Rdb_storage.Heap_file.fetch}, its
    scan cursor and [iter]), by a scan, by a retrieval or by
    [Session.rows_of] is the table's one stored copy, shared by every
    reader, and must never be mutated.  The heap copies a row once when
    it is inserted or updated, so the caller's array stays the
    caller's.  Code that needs a changed row builds a fresh array (the
    SQL executor's UPDATE copies first). *)

type t = Value.t array

val get : t -> int -> Value.t

val project : t -> int array -> t
(** [project row cols] extracts the given column positions. *)

val equal : t -> t -> bool
val compare_at : int array -> t -> t -> int
(** Lexicographic comparison on the given column positions. *)

val to_string : t -> string
