(** Rows and their stored encoding.

    A row is a [Value.t array] matching a schema.  The binary codec is
    a small tagged format used by the heap file so that page capacity
    tracks realistic record sizes. *)

type t = Value.t array

val get : t -> int -> Value.t

val encode : t -> Bytes.t
val decode : Bytes.t -> t
(** [decode (encode r) = r].  Raises [Failure] on corrupt input. *)

(** {1 Reading the encoding in place}

    A compiled restriction ({!Rdb_engine.Predicate.compile}) tests a
    heap slot's bytes before anything is decoded; these readers let it
    look at one field without building the row.  Each reader agrees
    with {!decode} on every field it reads and, like [decode], raises
    [Failure] on truncated input or a bad tag. *)

val field_offset : Bytes.t -> int -> int
(** [field_offset bytes i] is where field [i] starts (its tag byte).
    Walks the fields before it.  Raises [Invalid_argument] when [i] is
    outside the encoded arity. *)

val field_is_null : Bytes.t -> int -> bool
(** Whether the field starting at the given offset is NULL. *)

val compare_field : Bytes.t -> int -> Value.t -> int
(** [compare_field bytes off v] equals
    [Value.compare (field_value bytes off) v] — [Float.compare] for
    Int/Float mixes, strings by bytes — without allocating. *)

val field_value : Bytes.t -> int -> Value.t
(** The field starting at the given offset, decoded. *)

val project : t -> int array -> t
(** [project row cols] extracts the given column positions. *)

val equal : t -> t -> bool
val compare_at : int array -> t -> t -> int
(** Lexicographic comparison on the given column positions. *)

val to_string : t -> string
