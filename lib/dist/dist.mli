(** Selectivity probability distributions (paper §2).

    A selectivity distribution is a probability density function over
    the selectivity interval [0,1], represented as a histogram of [bins]
    equal-width bins.  The algebra implements the paper's operators:

    - negation: [p_{~X}(s) = p_X(1-s)] (mirror symmetry);
    - AND under an assumed correlation [c ∈ [-1,+1]]: the combined
      selectivity of point selectivities [sx], [sy] is the linear
      interpolation between [max 0 (sx+sy-1)] (c = -1), [sx*sy] (c = 0)
      and [min sx sy] (c = +1);
    - AND under the *unknown correlation* assumption: a uniform mixture
      of the above over [c ∈ [-1,+1]], which deposits each probability
      mass pair uniformly over the two selectivity segments
      [[max 0 (sx+sy-1), sx*sy]] and [[sx*sy, min sx sy]];
    - OR by De Morgan: [X|Y = ~(~X & ~Y)].

    All operations assume independence *between the distributions*
    (the correlation parameter models correlation between the
    underlying predicates, as in the paper). *)

type t

type correlation =
  | Fixed of float  (** assumed correlation c ∈ [-1, +1] *)
  | Unknown  (** uniform mixture over c ∈ [-1, +1] *)

val default_bins : int
(** Grid resolution used by the convenience constructors (512). *)

(** {1 Constructors} *)

val uniform : ?bins:int -> unit -> t
(** Total uncertainty: flat density on [0,1]. *)

val point : ?bins:int -> float -> t
(** All mass at selectivity [s] (clamped to [0,1]): a perfectly known
    selectivity. *)

val bell : ?bins:int -> mean:float -> stddev:float -> unit -> t
(** Truncated, renormalized Gaussian: an estimate [mean] with
    uncertainty [stddev] (the paper's "bell", e.g. m=0.2, e=0.005 in
    Figure 2.2). *)

val of_density : float array -> t
(** Build from raw non-negative density samples (renormalized).
    Raises [Invalid_argument] if empty, all-zero or containing a
    negative value. *)

val hyperbola : ?bins:int -> b:float -> unit -> t
(** Truncated hyperbola density [h(s) = A / (s + b)] on [0,1],
    normalized.  Small [b] gives extreme L-shapes. *)

(** {1 Algebra} *)

val neg : t -> t
(** Distribution of [~X]. *)

val and_ : corr:correlation -> t -> t -> t
(** Distribution of [X & Y]. *)

val or_ : corr:correlation -> t -> t -> t
(** Distribution of [X | Y] (De Morgan on {!and_}). *)

val join : corr:correlation -> t -> t -> t
(** Distribution of an equi-join's selectivity over the key-domain
    cross product.  The paper (§2): "the JOIN operator behaves almost
    identically to the AND operator when multiple joins use the same
    key which is unique for all underlying tables - the key domain
    cardinality should be used in the selectivity definition"; under
    that framing this *is* {!and_}, and the general JOIN case
    degenerates at least as fast. *)

val and_self : corr:correlation -> t -> t
(** [and_self d] is [and_ d d]: the paper's unary [&X] shorthand
    (conjunction with an independent predicate of identical
    distribution). *)

val or_self : corr:correlation -> t -> t

val chain : op:(t -> t) -> int -> t -> t
(** [chain ~op n d] applies [op] to [d] [n] times ([n >= 0]). *)

(** {1 Queries} *)

val bins : t -> int

val density : t -> float array
(** Copy of the density values; [density.(i)] is the density at the
    midpoint of bin [i].  Sums to [bins] (i.e. integrates to 1). *)

val pdf_at : t -> float -> float
val cdf : t -> float -> float
(** Probability of selectivity [<= s]. *)

val quantile : t -> float -> float
(** Inverse CDF; [quantile d 0.5] is the median. *)

val mean : t -> float
val stddev : t -> float

val mass_below : t -> float -> float
(** Same as {!cdf}; reads better in L-shape contexts: "mass
    concentrated below s". *)

val sample : Rdb_util.Prng.t -> t -> float
(** Draw a selectivity by inverse-CDF sampling. *)

val expectation : t -> (float -> float) -> float
(** [expectation d f] is E[f(S)]. *)

val scale_cost : t -> float -> (float -> float)
(** [scale_cost d cmax] views the distribution as a *cost* distribution
    on [0, cmax] and returns its density function there (used by the
    competition model, §3). *)

val is_close : ?tolerance:float -> t -> t -> bool
(** L1 distance between densities below [tolerance] (default 0.05);
    distributions must have equal bin counts. *)

val pp : Format.formatter -> t -> unit
(** One-line summary: mean, stddev, quartiles. *)
