(** Zipf-distributed integer generator [Zipf49].

    The paper's §2 conclusion is that intermediate selectivities are
    "predominantly Zipf-like"; the benchmark workloads use Zipfian
    column values to reproduce the data skew that breaks static
    optimizers. *)

type t

val create : n:int -> theta:float -> t
(** Ranks 1..n with P(k) ∝ 1/k^theta.  [theta = 0] is uniform;
    [theta = 1] is classic Zipf.  Raises [Invalid_argument] if
    [n < 1] or [theta < 0]. *)

val draw : t -> Rdb_util.Prng.t -> int
(** A rank in [1, n], skewed toward 1. *)
