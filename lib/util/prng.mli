(** Deterministic pseudo-random number generator (splitmix64).

    All randomized components of the system (samplers, workload
    generators, property tests) draw from this generator so that every
    experiment is reproducible from a seed.  The implementation is the
    standard splitmix64 mixer, which is small, fast, and has no shared
    global state: each [t] is an independent stream. *)

type t

val create : seed:int -> t
(** [create ~seed] makes a fresh generator.  Equal seeds give equal
    streams. *)

val split : t -> t
(** [split g] advances [g] and returns a new generator whose stream is
    statistically independent of [g]'s subsequent output. *)

val int : t -> int -> int
(** [int g bound] is uniform on [0, bound-1].  [bound] must be > 0. *)

val int_in : t -> int -> int -> int
(** [int_in g lo hi] is uniform on [lo, hi] inclusive ([lo <= hi]). *)

val float : t -> float -> float
(** [float g x] is uniform on [0, x). *)

val bool : t -> bool

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)

val choose : t -> 'a array -> 'a
(** Uniformly random element of a non-empty array. *)

val normal : t -> mean:float -> stddev:float -> float
(** Normally distributed float (Box-Muller). *)
