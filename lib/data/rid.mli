(** Record identifiers.

    A RID names a record's physical location: (data page number, slot
    within the page).  RID order therefore *is* physical order, which
    is what makes sorted-RID-list retrieval sequential-friendly
    (paper §7, background-only tactic). *)

type t = { page : int; slot : int }

val make : page:int -> slot:int -> t
val compare : t -> t -> int
val equal : t -> t -> bool
val hash : t -> int
(** Mixed hash for hashed bitmap filters [Babb79]. *)

val to_string : t -> string

val to_int : t -> slots_per_page:int -> int
(** Dense encoding used by exact (non-hashed) page bitmaps. *)

val of_int : int -> slots_per_page:int -> t
