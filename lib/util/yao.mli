(** Yao's formula for block accesses.

    Fetching [k] records chosen uniformly without replacement from a
    table of [n] records packed [m] records per block touches, in
    expectation,

      blocks(n, m, k) = B * (1 - C(n - m, k) / C(n, k))

    where B = ceil(n / m) is the number of blocks.  The dynamic
    optimizer uses it to project the cost of fetching a sorted RID list
    (§6: "projected retrieval cost ... estimated from the current RID
    list"). *)

val blocks : n:int -> per_block:int -> k:int -> float
(** Expected number of distinct blocks touched.  Total blocks when
    [k >= n]; 0 when [k = 0].

    The probability that a block receives none of the draws is a
    product over the [k] draws, summed in log space.  Those running
    sums are memoized per [(n, per_block)] and extended on demand by
    the same left fold, so the result is bit-identical to evaluating
    the product afresh; a call costs O(1) once its [k] has been
    reached.  At most 16 [(n, per_block)] tables are kept: a new key
    past that clears them.  The tables are process-wide and
    unsynchronized, so calls must come from one domain at a time. *)
