(** Canonical benchmark datasets.

    Three tables sized for laptop-scale runs that still show I/O
    effects (tables several times larger than the default buffer
    pool):

    - FAMILIES — the §4 motivating table: AGE in [0,100] uniform,
      indexed; used for the host-variable experiment.
    - ORDERS — multi-index OLTP-ish table with Zipf-skewed CUSTOMER and
      PRODUCT columns, a clustered DAY column (insertion order =
      day order), and a PRICE column; used for the Jscan/tactics
      experiments.
    - EMPLOYEES — a covering-index playground: (DEPT, SALARY) composite
      index covers the salary-by-department queries; used for the
      index-only tactic.

    All generators are deterministic from the seed. *)

open Rdb_engine

val families : ?rows:int -> ?seed:int -> Database.t -> Table.t
(** Columns: ID int, AGE int, NAME str, CITY str, PROFILE str (a
    ~200-byte payload giving realistic record widths).  Index: AGE_IDX
    on AGE. *)

val orders : ?rows:int -> ?seed:int -> Database.t -> Table.t
(** Columns: ID, CUSTOMER, PRODUCT, DAY, PRICE, QTY (ints).  Indexes:
    CUST_IDX, PROD_IDX, DAY_IDX, PRICE_IDX.  CUSTOMER (2000 values) and
    PRODUCT (500 values) are Zipf(1.0); rows are inserted in DAY order
    over 365 days, so DAY_IDX is clustered; PRICE is uniform in
    [10, 5000). *)

val employees : ?rows:int -> ?seed:int -> Database.t -> Table.t
(** Columns: ID, DEPT (40 departments), SALARY, AGE (ints), NAME
    (str).  Indexes: DEPT_SAL_IDX on (DEPT, SALARY) — covering for
    dept/salary queries — and AGE_IDX on AGE. *)

val sensors : ?rows:int -> ?seed:int -> Database.t -> Table.t
(** Columns: ID, T (insertion-ordered time), A (uniform in [0, 10000)),
    B = A + uniform noise in [-200, +200] — i.e. A and B are strongly
    *positively correlated*, the case where the independence
    assumption underestimates intersections the most (§2's
    unknown-correlation motivation).
    Indexes: A_IDX, B_IDX, T_IDX. *)

val fresh_db : ?pool_capacity:int -> ?pool_shards:int -> unit -> Database.t
