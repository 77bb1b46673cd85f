(** Shape classification of selectivity distributions (paper §2).

    The paper's central statistical finding is that AND/OR chains drive
    selectivity distributions toward *L-shapes*: roughly half the
    probability mass concentrated in a thin sliver at one end of [0,1]
    with the remainder spread over a broad adjacent region.  This
    module quantifies that. *)

type classification =
  | L_left  (** mass concentrated near selectivity 0 (AND-dominant) *)
  | L_right  (** mass concentrated near 1 (OR-dominant) *)
  | Bell  (** unimodal concentration away from both ends *)
  | Flat  (** near-uniform *)

val skewness : Dist.t -> float
(** Standardized third central moment.  Strongly positive for L_left
    shapes, strongly negative for L_right. *)

val concentration : Dist.t -> float
(** The paper's "50% in a small area" measure: the smallest prefix
    width w such that mass([0,w]) >= 0.5, i.e. the median.  Small
    values mean strong left concentration. *)

val classify : Dist.t -> classification
(** Heuristic classification used in reports and tests. *)

val classification_to_string : classification -> string
