(** Small numeric helpers shared by the estimator, the distribution
    algebra, and the benchmark reporting code. *)

val mean : float array -> float
(** Arithmetic mean; 0 on the empty array. *)

val variance : float array -> float
(** Population variance; 0 on arrays shorter than 2. *)

val stddev : float array -> float

val percentile : float array -> float -> float
(** [percentile xs p] with [p] in [0,1]: linear-interpolated percentile
    of a copy of [xs] sorted ascending.  Raises [Invalid_argument] on
    an empty array. *)

val median : float array -> float

val clamp : float -> lo:float -> hi:float -> float

val float_equal : float -> float -> bool
(** Absolute-difference comparison within [1e-9]. *)
