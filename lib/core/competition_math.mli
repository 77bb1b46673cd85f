(** The §3 competition cost model, in closed form and by simulation.

    Two alternative plans A₁, A₂ have L-shaped cost distributions: 50%
    of the probability in a small region [0, cᵢ], the rest spread
    widely with overall means M₁ ≤ M₂ and low-region mean m₂ ≪ c₂ ≪ M₁.
    The paper's arithmetic: the traditional optimizer runs A₁ at
    average cost M₁; running A₂ up to c₂ then switching to A₁ costs

      (m₂ + c₂ + M₁) / 2   — about half of M₁.

    This module evaluates arbitrary switch points against arbitrary
    cost densities, optimizes the switch point, and handles the
    simultaneous proportional-speed run of two hyperbolic plans. *)

type cost_dist = {
  density : float -> float;  (** pdf on [0, cmax] *)
  cmax : float;
}

val of_dist : Rdb_dist.Dist.t -> cmax:float -> cost_dist
(** View a selectivity distribution as a cost distribution. *)

val l_shaped : knee:float -> cmax:float -> ?bins:int -> unit -> cost_dist
(** Truncated hyperbola with half the mass below [knee]. *)

val mean : cost_dist -> float
val cdf : cost_dist -> float -> float
val mean_below : cost_dist -> float -> float
(** Mean of the distribution conditioned on [cost <= x]. *)

val quantile : cost_dist -> float -> float

val switch_cost : try_:cost_dist -> fallback:cost_dist -> switch_at:float -> float
(** Expected cost of: run [try_] until it either completes (cost ≤
    switch point) or hits [switch_at], then abandon and run [fallback]
    to completion.  E = E[X·1(X≤τ)] + (1-F(τ))·(τ + E[fallback]). *)

val optimal_switch : try_:cost_dist -> fallback:cost_dist -> float * float
(** Switch point minimizing {!switch_cost} (grid + refinement), with
    its expected cost. *)

val simultaneous_cost :
  a:cost_dist -> b:cost_dist -> speed_a:float -> abandon_b_at:float -> float
(** Run A and B concurrently, A at relative speed [speed_a] ∈ (0,1]
    (B gets the complement); B is abandoned once its own progress
    reaches [abandon_b_at]; total cost counts both plans' consumption
    until the first completes (or A completes after B's abandonment).
    Evaluated by numeric integration over the two completion costs,
    assuming independence. *)

val optimal_simultaneous : a:cost_dist -> b:cost_dist -> float * float * float
(** Best (speed_a, abandon_b_at, expected_cost) over a grid. *)
