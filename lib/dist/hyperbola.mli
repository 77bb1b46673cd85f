(** Truncated-hyperbola fitting (paper §2).

    The paper reports that asymmetric AND/OR transforms of the uniform
    distribution are well approximated by truncated hyperbolas, with
    relative errors 1/4 for [&X], 1/7 for [&&X], 1/23 for [&&&X],
    where the relative error of a fit h to p is

      max_s |p(s) - h(s)| / (max_s p(s) - min_s p(s)).

    The fitted family is h(s) = A / (s + b) + d on [0,1], truncated and
    normalized (A is determined by b, d and the normalization
    constraint).  Right-leaning L-shapes are fitted through their
    mirror. *)

type fit = {
  b : float;  (** pole offset; smaller = more skewed *)
  d : float;  (** vertical offset of the truncated hyperbola *)
  mirrored : bool;  (** fit performed on the mirrored density *)
  relative_error : float;  (** the paper's max-relative-error metric *)
}

val relative_error : Dist.t -> Dist.t -> float
(** The paper's error metric between a density and a candidate fit
    (same bin count required). *)

val density : ?bins:int -> b:float -> d:float -> unit -> Dist.t
(** The normalized truncated hyperbola with parameters [b], [d >= 0].
    Raises [Invalid_argument] for non-positive [b]. *)

val fit : Dist.t -> fit
(** Best fit over a logarithmic grid of [b] refined by golden-section
    search, with [d] swept over a small grid; the mirror orientation
    giving the smaller error is selected. *)

