(** Online index rebuild.

    Reconstructs a damaged index from the heap — the ground truth — in
    bounded increments so the multi-query session scheduler can
    interleave the rebuild with foreground queries.  Every heap page
    read and new-tree node write is charged through the buffer pool to
    the repair's own meter, so the rebuild competes for cache and cost
    quanta like any other session.

    Lifecycle: {!create} moves the index to [Rebuilding] (it disappears
    from planning); each step of a {!grant} copies up to 64 rows into
    a fresh tree through one {!Rdb_exec.Driver.pump}, retrying up to 8
    consecutive transient heap faults with the same deterministic
    backoff as retrieval (a retried fault ends its step early); on
    success the new tree is atomically swapped in
    ({!Rdb_engine.Table.replace_index} — pool label moved, stale blocks
    evicted, cached estimation state reseeded) and the index returns
    to [Healthy].  On a persistent heap fault the rebuild fails
    and the index goes back to [Quarantined] with an escalated
    backoff — degraded, but never absorbing: the re-probe path
    remains. *)

type t

val create : Rdb_engine.Table.t -> index:string -> t
(** Start rebuilding [index].  Raises [Invalid_argument] on an unknown
    index name. *)

val grant : t -> budget:float -> max_steps:int -> bool option
(** One scheduler grant: copy up to 64 rows per step until [budget]
    worth of cost has been charged since entry, [max_steps] steps ran,
    or the rebuild finished (all checked before each step).  [Some ok]
    iff it finished during the grant.  This is
    {!Rdb_exec.Driver.clocked_loop} over the copy step — the same
    grant loop the session scheduler uses for queries. *)

val entries : t -> int
(** Entries copied into the new tree so far. *)

val spent : t -> float
(** Cost charged by the rebuild so far. *)

val trace : t -> Rdb_exec.Trace.t
(** Repair_started / retries / health transitions / Repair_done. *)
