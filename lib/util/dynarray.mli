(** Growable arrays.

    OCaml 5.1's standard library has no [Dynarray]; this is the small
    subset the engine needs (append-only growth plus in-place sort and
    truncation, used heavily by RID-list builders). *)

type 'a t

val create : unit -> 'a t
val length : 'a t -> int
val is_empty : 'a t -> bool
val get : 'a t -> int -> 'a
val set : 'a t -> int -> 'a -> unit
val push : 'a t -> 'a -> unit
val pop : 'a t -> 'a option
(** Remove and return the last element. *)

val clear : 'a t -> unit
val truncate : 'a t -> int -> unit
(** [truncate a n] keeps the first [n] elements ([n <= length a]). *)

val iter : ('a -> unit) -> 'a t -> unit
val iteri : (int -> 'a -> unit) -> 'a t -> unit
val fold_left : ('b -> 'a -> 'b) -> 'b -> 'a t -> 'b
val to_array : 'a t -> 'a array
val to_list : 'a t -> 'a list
val of_list : 'a list -> 'a t
val sort : ('a -> 'a -> int) -> 'a t -> unit
(** In-place sort of the live elements. *)

val append : 'a t -> 'a t -> unit
(** [append dst src] pushes all of [src] onto [dst]. *)

val last : 'a t -> 'a option
