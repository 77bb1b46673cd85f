(* B+-tree tests: model-based random operations, structural
   invariants, range cursors, the Figure 5 estimator, and the two
   samplers. *)

open Rdb_data
open Rdb_btree

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let fresh ?(fanout = 5) () =
  let pool = Rdb_storage.Buffer_pool.create ~capacity:10_000 () in
  (Btree.create ~fanout pool, Rdb_storage.Cost.create ())

let k i : Btree.key = [| Value.int i |]
let rid i = Rid.make ~page:(i / 8) ~slot:(i mod 8)

let assert_ok t =
  match Btree.self_check t with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("self_check: " ^ e)

(* --- basic operations -------------------------------------------------- *)

let test_insert_lookup () =
  let t, m = fresh () in
  for i = 0 to 999 do
    Btree.insert t m (k (i * 7 mod 1000)) (rid i)
  done;
  assert_ok t;
  check_int "cardinality" 1000 (Btree.cardinality t);
  check "mem" true (Btree.mem t m (k 7) (rid 1));
  check "not mem" false (Btree.mem t m (k 7) (rid 999))

let test_duplicate_insert_ignored () =
  let t, m = fresh () in
  Btree.insert t m (k 1) (rid 1);
  Btree.insert t m (k 1) (rid 1);
  check_int "no dup" 1 (Btree.cardinality t);
  Btree.insert t m (k 1) (rid 2);
  check_int "same key different rid ok" 2 (Btree.cardinality t)

let test_delete () =
  let t, m = fresh () in
  for i = 0 to 499 do
    Btree.insert t m (k i) (rid i)
  done;
  for i = 0 to 499 do
    if i mod 2 = 0 then check "delete succeeds" true (Btree.delete t m (k i) (rid i))
  done;
  assert_ok t;
  check_int "half left" 250 (Btree.cardinality t);
  check "deleted gone" false (Btree.mem t m (k 0) (rid 0));
  check "absent delete" false (Btree.delete t m (k 0) (rid 0))

let test_delete_to_empty () =
  let t, m = fresh () in
  for i = 0 to 199 do
    Btree.insert t m (k i) (rid i)
  done;
  for i = 199 downto 0 do
    ignore (Btree.delete t m (k i) (rid i))
  done;
  assert_ok t;
  check_int "empty" 0 (Btree.cardinality t);
  check_int "height 1" 1 (Btree.height t);
  (* Reusable after emptying. *)
  Btree.insert t m (k 42) (rid 0);
  check_int "reinsert" 1 (Btree.cardinality t)

let test_height_grows_logarithmically () =
  let t, m = fresh ~fanout:8 () in
  for i = 0 to 4095 do
    Btree.insert t m (k i) (rid i)
  done;
  assert_ok t;
  check "height sane" true (Btree.height t >= 4 && Btree.height t <= 8)

(* --- model-based property --------------------------------------------- *)

let prop_matches_sorted_model =
  QCheck.Test.make ~name:"btree matches set model under random ops" ~count:40
    QCheck.(pair (int_bound 1000) (list (pair bool (int_bound 120))))
    (fun (seed, ops) ->
      ignore seed;
      let t, m = fresh ~fanout:4 () in
      let model = Hashtbl.create 64 in
      List.iter
        (fun (is_insert, key) ->
          let r = rid key in
          if is_insert then begin
            Btree.insert t m (k key) r;
            Hashtbl.replace model key ()
          end
          else begin
            ignore (Btree.delete t m (k key) r);
            Hashtbl.remove model key
          end)
        ops;
      (match Btree.self_check t with Ok () -> () | Error e -> QCheck.Test.fail_report e);
      let model_sorted = List.sort compare (Hashtbl.fold (fun x () acc -> x :: acc) model []) in
      let tree_keys = ref [] in
      Btree.iter_range t m Btree.full_range (fun key _ ->
          match key.(0) with
          | Value.Int i -> tree_keys := i :: !tree_keys
          | _ -> ());
      List.rev !tree_keys = model_sorted)

(* --- range cursors ------------------------------------------------------ *)

let test_range_inclusive_exclusive () =
  let t, m = fresh () in
  for i = 0 to 99 do
    Btree.insert t m (k i) (rid i)
  done;
  let count range = Btree.count_range t m range in
  check_int "incl incl" 11 (count (Btree.range_incl (k 10) (k 20)));
  check_int "excl lo" 10 (count { Btree.lo = Btree.Excl (k 10); hi = Btree.Incl (k 20) });
  check_int "excl hi" 10 (count { Btree.lo = Btree.Incl (k 10); hi = Btree.Excl (k 20) });
  check_int "unbounded lo" 21 (count { Btree.lo = Btree.Unbounded; hi = Btree.Incl (k 20) });
  check_int "unbounded hi" 9 (count { Btree.lo = Btree.Excl (k 90); hi = Btree.Unbounded });
  check_int "empty range" 0 (count (Btree.range_incl (k 60) (k 50)));
  check_int "point" 1 (count (Btree.point_range (k 42)))

let test_range_with_duplicates () =
  let t, m = fresh () in
  for i = 0 to 299 do
    Btree.insert t m (k (i mod 10)) (rid i)
  done;
  check_int "dup point range" 30 (Btree.count_range t m (Btree.point_range (k 3)));
  check_int "dup span" 90 (Btree.count_range t m (Btree.range_incl (k 3) (k 5)))

let test_composite_prefix_range () =
  let t, m = fresh () in
  for a = 0 to 9 do
    for b = 0 to 9 do
      Btree.insert t m [| Value.int a; Value.int b |] (rid ((a * 10) + b))
    done
  done;
  (* Prefix bound [3] matches all keys starting with 3. *)
  check_int "prefix point" 10 (Btree.count_range t m (Btree.point_range [| Value.int 3 |]));
  check_int "prefix+range" 4
    (Btree.count_range t m
       (Btree.range_incl [| Value.int 3; Value.int 2 |] [| Value.int 3; Value.int 5 |]));
  (* Exclusive prefix bound excludes the whole prefix group. *)
  check_int "excl prefix" 60
    (Btree.count_range t m { Btree.lo = Btree.Excl [| Value.int 3 |]; hi = Btree.Unbounded })

let test_cursor_consumed_and_exhaustion () =
  let t, m = fresh () in
  for i = 0 to 49 do
    Btree.insert t m (k i) (rid i)
  done;
  let c = Btree.cursor t m (Btree.range_incl (k 10) (k 14)) in
  let rec drain n = match Btree.next c with Some _ -> drain (n + 1) | None -> n in
  check_int "drained" 5 (drain 0);
  check_int "consumed" 5 (Btree.consumed c);
  check "stays exhausted" true (Btree.next c = None)

let prop_range_matches_filter =
  QCheck.Test.make ~name:"range scan equals filtered full scan" ~count:60
    QCheck.(triple (list (int_bound 200)) (int_bound 200) (int_bound 200))
    (fun (keys, a, b) ->
      let lo = Int.min a b and hi = Int.max a b in
      let t, m = fresh ~fanout:6 () in
      List.iteri (fun i key -> Btree.insert t m (k key) (rid i)) keys;
      let in_range = Btree.count_range t m (Btree.range_incl (k lo) (k hi)) in
      (* Every (key, rid) pair is unique because rids are derived from
         distinct list positions, so multiplicity is preserved. *)
      let expected = List.length (List.filter (fun key -> key >= lo && key <= hi) keys) in
      in_range = expected)

let test_multi_cursor_unions_ranges () =
  let t, m = fresh () in
  for i = 0 to 99 do
    Btree.insert t m (k i) (rid i)
  done;
  let mc =
    Btree.multi_cursor t m
      [ Btree.range_incl (k 10) (k 12); Btree.range_incl (k 50) (k 51);
        Btree.point_range (k 80) ]
  in
  let keys = ref [] in
  let rec drain () =
    match Btree.multi_next mc with
    | Some (key, _) ->
        (match key.(0) with Value.Int v -> keys := v :: !keys | _ -> ());
        drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check (list int)) "ranges in order" [ 10; 11; 12; 50; 51; 80 ] (List.rev !keys);
  check_int "consumed" 6 (Btree.multi_consumed mc);
  check "stays exhausted" true (Btree.multi_next mc = None)

let test_multi_cursor_empty_ranges () =
  let t, m = fresh () in
  for i = 0 to 20 do
    Btree.insert t m (k (i * 2)) (rid i)
  done;
  let mc =
    Btree.multi_cursor t m
      [ Btree.point_range (k 1); Btree.point_range (k 4); Btree.point_range (k 999) ]
  in
  let n = ref 0 in
  let rec drain () =
    match Btree.multi_next mc with Some _ -> incr n; drain () | None -> ()
  in
  drain ();
  check_int "only the middle range hits" 1 !n

(* --- estimation (Figure 5) ---------------------------------------------- *)

let test_estimate_exact_at_leaf () =
  let t, m = fresh ~fanout:64 () in
  for i = 0 to 30 do
    Btree.insert t m (k i) (rid i)
  done;
  (* Single leaf: descent reaches the leaf, count is exact. *)
  let r = Estimate.range t m (Btree.range_incl (k 5) (k 9)) in
  check "exact" true r.Estimate.exact;
  Alcotest.(check (float 0.01)) "count" 5.0 r.Estimate.estimate

let test_estimate_paper_formula () =
  (* RangeRIDs ~ k * f^(l-1): on a uniform tree the estimate must be
     within a small factor of the truth for mid-size ranges. *)
  let t, m = fresh ~fanout:8 () in
  for i = 0 to 9999 do
    Btree.insert t m (k i) (rid i)
  done;
  List.iter
    (fun (lo, hi) ->
      let actual = float_of_int (hi - lo + 1) in
      let r = Estimate.range t m (Btree.range_incl (k lo) (k hi)) in
      let ratio = r.Estimate.estimate /. actual in
      check
        (Printf.sprintf "range [%d,%d] ratio %.2f in [1/4,4]" lo hi ratio)
        true
        (ratio > 0.25 && ratio < 4.0))
    [ (0, 99); (500, 1500); (2000, 2100); (100, 8000); (9990, 9999) ]

let test_estimate_cheapness () =
  let t, m0 = fresh ~fanout:8 () in
  for i = 0 to 9999 do
    Btree.insert t m0 (k i) (rid i)
  done;
  let r = Estimate.range t (Rdb_storage.Cost.create ()) (Btree.range_incl (k 400) (k 4000)) in
  check "few node reads" true (r.Estimate.nodes_visited <= Btree.height t)

let test_estimate_empty_range_exact_zero () =
  let t, m = fresh ~fanout:8 () in
  for i = 0 to 999 do
    Btree.insert t m (k (i * 2)) (rid i)
  done;
  (* A range between existing keys but containing none. *)
  let r = Estimate.range t m (Btree.range_incl (k 10001) (k 10100)) in
  check "exact" true r.Estimate.exact;
  Alcotest.(check (float 0.001)) "zero" 0.0 r.Estimate.estimate

let test_estimate_selectivity_clamped () =
  let t, m = fresh () in
  for i = 0 to 99 do
    Btree.insert t m (k i) (rid i)
  done;
  let s = Estimate.selectivity t m Btree.full_range in
  check "selectivity <= 1" true (s <= 1.0 && s >= 0.9)

(* --- maintained shape ----------------------------------------------------- *)

(* Leaves, internal nodes and children of internal nodes, by walking
   the tree through node copies. *)
let walk_shape t =
  let m = Rdb_storage.Cost.create () in
  let rec go (l, i, c) node =
    match Btree.view t m node with
    | Btree.Leaf_view _ -> (l + 1, i, c)
    | Btree.Internal_view (_, children) ->
        Array.fold_left go (l, i + 1, c + Array.length children) children
  in
  go (0, 0, 0) (Btree.root t)

(* The averages as a fold of the tree computes them. *)
let walked_averages t =
  let leaves, internals, children = walk_shape t in
  let card = Btree.cardinality t in
  let leaf =
    if leaves = 0 then 0.0 else float_of_int card /. float_of_int leaves
  in
  let inner =
    if internals = 0 then float_of_int (Int.max 1 card)
    else float_of_int children /. float_of_int internals
  in
  (leaves, leaf, inner)

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let check_shape step t =
  assert_ok t;
  let leaves, leaf, inner = walked_averages t in
  check_int (step ^ ": leaf_count") leaves (Btree.leaf_count t);
  check (step ^ ": avg_leaf_entries") true (same_bits leaf (Btree.avg_leaf_entries t));
  check (step ^ ": avg_internal_children") true
    (same_bits inner (Btree.avg_internal_children t))

(* Delete a fanout-3 tree down to one leaf: leaf and internal merges
   and repeated root collapses must each keep the counters equal to a
   walk of the tree. *)
let test_shape_counters_through_collapse () =
  let t, m = fresh ~fanout:3 () in
  let n = 300 in
  let order = Array.init n Fun.id in
  Rdb_util.Prng.shuffle (Rdb_util.Prng.create ~seed:5) order;
  Array.iteri
    (fun step i ->
      Btree.insert t m (k i) (rid i);
      check_shape (Printf.sprintf "insert %d" step) t)
    order;
  Rdb_util.Prng.shuffle (Rdb_util.Prng.create ~seed:6) order;
  let collapses = ref 0 in
  for step = 0 to n - 2 do
    let i = order.(step) in
    let before = Btree.height t in
    check "deleted" true (Btree.delete t m (k i) (rid i));
    if Btree.height t < before then incr collapses;
    check_shape (Printf.sprintf "delete %d" step) t
  done;
  check_int "one leaf left" 1 (Btree.leaf_count t);
  check_int "height 1" 1 (Btree.height t);
  check "repeated root collapses" true (!collapses >= 3)

(* --- estimate against the copy-and-scan reference ------------------------- *)

(* The estimator as it read the tree before the in-place descent: each
   node copied through [Btree.view], the child span counted by linear
   scans over the separators, the leaf's in-range entries by a filter,
   and the averages taken from a walk of the tree. *)
let reference_child_span (seps : Btree.key array) (range : Btree.range) =
  let count_while p =
    let rec go i = if i < Array.length seps && p seps.(i) then go (i + 1) else i in
    go 0
  in
  let lo_child =
    match range.Btree.lo with
    | Btree.Unbounded -> 0
    | Btree.Incl k -> count_while (fun s -> Btree.compare_key s k < 0)
    | Btree.Excl k -> count_while (fun s -> Btree.compare_key s k <= 0)
  in
  let hi_child =
    match range.Btree.hi with
    | Btree.Unbounded -> Array.length seps
    | Btree.Incl k -> count_while (fun s -> Btree.compare_key s k <= 0)
    | Btree.Excl k -> count_while (fun s -> Btree.compare_key s k < 0)
  in
  (lo_child, Int.max lo_child hi_child)

let reference_estimate tree meter (r : Btree.range) ~leaf ~inner =
  match (r.Btree.lo, r.Btree.hi) with
  | Btree.Unbounded, Btree.Unbounded ->
      { Estimate.estimate = float_of_int (Btree.cardinality tree); exact = true;
        split_level = Btree.height tree; k = 1; nodes_visited = 0 }
  | _ ->
      let f =
        if Btree.height tree <= 1 then Float.max 1.0 leaf
        else Float.max 1.0 (sqrt (leaf *. inner))
      in
      let rec descend node level visited =
        match Btree.view tree meter node with
        | Btree.Leaf_view entries ->
            let k =
              Array.fold_left
                (fun acc (key, _) -> if Btree.in_range r key then acc + 1 else acc)
                0 entries
            in
            { Estimate.estimate = float_of_int k; exact = true; split_level = 1; k;
              nodes_visited = visited + 1 }
        | Btree.Internal_view (seps, children) ->
            let lo_c, hi_c = reference_child_span seps r in
            if lo_c = hi_c then descend children.(lo_c) (level - 1) (visited + 1)
            else begin
              let k = hi_c - lo_c in
              let estimate =
                if level = 2 then float_of_int k *. leaf
                else float_of_int k *. (f ** float_of_int (level - 2)) *. leaf
              in
              { Estimate.estimate; exact = false; split_level = level; k;
                nodes_visited = visited + 1 }
            end
      in
      descend (Btree.root tree) (Btree.height tree) 0

let meter_counts m =
  Rdb_storage.Cost.
    [ physical_reads m; logical_reads m; block_writes m; cpu_ops m ]

(* Random trees (fanout 3-8, one- and two-column keys drawn from few
   values, so runs of duplicates; NULLs; deletes after the inserts) and
   random ranges (Incl / Excl / Unbounded bounds, partial keys, values
   past both ends, hence empty and inverted ranges): [Estimate.range]
   must equal the reference field by field, and charge the same counts
   on a cold pool. *)
let test_estimate_matches_reference () =
  let deep_splits = ref 0 and leaf_counts = ref 0 and empties = ref 0 in
  for seed = 1 to 120 do
    let g = Rdb_util.Prng.create ~seed in
    let draw = Rdb_util.Prng.int g in
    let pool = Rdb_storage.Buffer_pool.create ~capacity:10_000 () in
    let t = Btree.create ~fanout:(3 + draw 6) pool in
    let m = Rdb_storage.Cost.create () in
    let arity = 1 + draw 2 in
    let value () = if draw 20 = 0 then Value.Null else Value.int (draw 15) in
    let keys = Array.init (draw 600) (fun _ -> Array.init arity (fun _ -> value ())) in
    Array.iteri (fun i key -> Btree.insert t m key (rid i)) keys;
    Array.iteri (fun i key -> if draw 4 = 0 then ignore (Btree.delete t m key (rid i))) keys;
    let _, leaf, inner = walked_averages t in
    let bound () =
      let key () = Array.init (1 + draw arity) (fun _ -> Value.int (draw 18 - 1)) in
      match draw 3 with
      | 0 -> Btree.Unbounded
      | 1 -> Btree.Incl (key ())
      | _ -> Btree.Excl (key ())
    in
    for case = 1 to 30 do
      let r = { Btree.lo = bound (); hi = bound () } in
      let what field = Printf.sprintf "seed %d case %d: %s" seed case field in
      let m_ref = Rdb_storage.Cost.create () and m_new = Rdb_storage.Cost.create () in
      Rdb_storage.Buffer_pool.flush pool;
      let want = reference_estimate t m_ref r ~leaf ~inner in
      Rdb_storage.Buffer_pool.flush pool;
      let got = Estimate.range t m_new r in
      let open Estimate in
      check (what "estimate") true (same_bits want.estimate got.estimate);
      check (what "exact") want.exact got.exact;
      check_int (what "split_level") want.split_level got.split_level;
      check_int (what "k") want.k got.k;
      check_int (what "nodes_visited") want.nodes_visited got.nodes_visited;
      Alcotest.(check (list int)) (what "meter") (meter_counts m_ref) (meter_counts m_new);
      if (not got.exact) && got.split_level >= 3 then incr deep_splits;
      if got.exact && got.nodes_visited >= 2 then incr leaf_counts;
      if got.exact && got.k = 0 then incr empties
    done
  done;
  check "splits above level 2 covered" true (!deep_splits > 0);
  check "exact leaf counts below the root covered" true (!leaf_counts > 0);
  check "empty ranges covered" true (!empties > 0)

(* --- sampling ------------------------------------------------------------ *)

let test_sampling_uniformity () =
  let t, m = fresh ~fanout:6 () in
  (* Deliberately skewed insertion order; values 0..999. *)
  let rng = Rdb_util.Prng.create ~seed:31 in
  for i = 0 to 1999 do
    Btree.insert t m (k (Rdb_util.Prng.int rng 1000)) (rid i)
  done;
  let total = Btree.cardinality t in
  let below =
    let n = ref 0 in
    Btree.iter_range t m Btree.full_range (fun key _ ->
        match key.(0) with Value.Int v when v < 300 -> incr n | _ -> ());
    float_of_int !n /. float_of_int total
  in
  let frac stats =
    let hits =
      Array.fold_left
        (fun acc (key, _) ->
          match key.(0) with Value.Int v when v < 300 -> acc + 1 | _ -> acc)
        0 stats.Sampling.samples
    in
    float_of_int hits /. float_of_int (Array.length stats.Sampling.samples)
  in
  let rng = Rdb_util.Prng.create ~seed:77 in
  let ranked = Sampling.ranked rng t m ~n:3000 in
  let ar = Sampling.acceptance_rejection rng t m ~n:3000 in
  check "ranked near truth" true (Float.abs (frac ranked -. below) < 0.05);
  check "a/r near truth" true (Float.abs (frac ar -. below) < 0.05)

let test_ranked_cheaper_than_ar () =
  (* The [Ant92] claim: pseudo-ranked descent wastes no rejected
     descents, acceptance/rejection wastes many. *)
  let t, m = fresh ~fanout:6 () in
  for i = 0 to 4999 do
    Btree.insert t m (k i) (rid i)
  done;
  let rng = Rdb_util.Prng.create ~seed:13 in
  let ranked = Sampling.ranked rng t m ~n:500 in
  let ar = Sampling.acceptance_rejection rng t m ~n:500 in
  check_int "ranked descents = n" 500 ranked.Sampling.descents;
  check "a/r needs more descents" true (ar.Sampling.descents > ranked.Sampling.descents);
  check "a/r visits more nodes" true (ar.Sampling.nodes_visited > ranked.Sampling.nodes_visited)

let test_estimate_fraction () =
  let t, m = fresh ~fanout:8 () in
  for i = 0 to 1999 do
    Btree.insert t m (k i) (rid i)
  done;
  let rng = Rdb_util.Prng.create ~seed:3 in
  let f =
    Sampling.estimate_fraction rng t m ~n:2000 (fun key _ ->
        match key.(0) with Value.Int v -> v mod 2 = 0 | _ -> false)
  in
  check "even fraction ~0.5" true (Float.abs (f -. 0.5) < 0.05)

let test_sampling_empty_tree () =
  let t, m = fresh () in
  let rng = Rdb_util.Prng.create ~seed:1 in
  let s = Sampling.ranked rng t m ~n:10 in
  check_int "no samples" 0 (Array.length s.Sampling.samples);
  let s2 = Sampling.acceptance_rejection rng t m ~n:10 in
  check_int "no samples a/r" 0 (Array.length s2.Sampling.samples)

(* --- edge cases -------------------------------------------------------------- *)

let test_string_and_composite_keys () =
  let t, m = fresh ~fanout:4 () in
  let names = [| "delta"; "alpha"; "echo"; "bravo"; "charlie" |] in
  Array.iteri
    (fun i name ->
      Btree.insert t m [| Value.str name; Value.int i |] (rid i))
    names;
  assert_ok t;
  let collected = ref [] in
  Btree.iter_range t m Btree.full_range (fun key _ ->
      match key.(0) with Value.Str s -> collected := s :: !collected | _ -> ());
  Alcotest.(check (list string))
    "string key order"
    [ "alpha"; "bravo"; "charlie"; "delta"; "echo" ]
    (List.rev !collected);
  (* prefix range on the string column *)
  check_int "prefix point" 1
    (Btree.count_range t m (Btree.point_range [| Value.str "bravo" |]))

let test_minimum_fanout_stress () =
  let t, m = fresh ~fanout:3 () in
  for i = 0 to 999 do
    Btree.insert t m (k (i * 17 mod 1000)) (rid i)
  done;
  assert_ok t;
  for i = 0 to 999 do
    if i mod 3 <> 0 then ignore (Btree.delete t m (k (i * 17 mod 1000)) (rid i))
  done;
  assert_ok t;
  check "still consistent" true (Btree.cardinality t > 0)

let test_height_shrinks_after_mass_delete () =
  let t, m = fresh ~fanout:4 () in
  for i = 0 to 2000 do
    Btree.insert t m (k i) (rid i)
  done;
  let tall = Btree.height t in
  for i = 0 to 1990 do
    ignore (Btree.delete t m (k i) (rid i))
  done;
  assert_ok t;
  check "height decreased" true (Btree.height t < tall)

let test_all_duplicate_keys () =
  let t, m = fresh ~fanout:4 () in
  for i = 0 to 499 do
    Btree.insert t m (k 7) (rid i)
  done;
  assert_ok t;
  check_int "all stored" 500 (Btree.cardinality t);
  check_int "point range finds all" 500 (Btree.count_range t m (Btree.point_range (k 7)));
  (* estimator sees a heavy duplicate run *)
  let r = Estimate.range t m (Btree.point_range (k 7)) in
  check "estimate near 500" true (r.Estimate.estimate > 100.0)

let test_null_keys_sort_first () =
  let t, m = fresh () in
  Btree.insert t m [| Value.Null |] (rid 0);
  Btree.insert t m [| Value.int (-5) |] (rid 1);
  Btree.insert t m [| Value.int 5 |] (rid 2);
  let first = ref None in
  Btree.iter_range t m Btree.full_range (fun key _ ->
      if !first = None then first := Some key.(0));
  check "null first" true (!first = Some Value.Null);
  (* an Excl [Null] low bound skips the null *)
  check_int "null excluded" 2
    (Btree.count_range t m { Btree.lo = Btree.Excl [| Value.Null |]; hi = Btree.Unbounded })

(* --- cost charging --------------------------------------------------------- *)

let test_scans_charge_pool () =
  let pool = Rdb_storage.Buffer_pool.create ~capacity:4 () in
  let t = Btree.create ~fanout:4 pool in
  let m = Rdb_storage.Cost.create () in
  for i = 0 to 499 do
    Btree.insert t m (k i) (rid i)
  done;
  let m2 = Rdb_storage.Cost.create () in
  ignore (Btree.count_range t m2 Btree.full_range);
  check "leaf walks charged" true
    (Rdb_storage.Cost.physical_reads m2 + Rdb_storage.Cost.logical_reads m2
    >= Btree.leaf_count t)

let () =
  Alcotest.run "rdb_btree"
    [
      ( "ops",
        [
          Alcotest.test_case "insert/lookup" `Quick test_insert_lookup;
          Alcotest.test_case "duplicates" `Quick test_duplicate_insert_ignored;
          Alcotest.test_case "delete" `Quick test_delete;
          Alcotest.test_case "delete to empty" `Quick test_delete_to_empty;
          Alcotest.test_case "height" `Quick test_height_grows_logarithmically;
          Alcotest.test_case "shape counters through collapse" `Quick
            test_shape_counters_through_collapse;
          QCheck_alcotest.to_alcotest prop_matches_sorted_model;
        ] );
      ( "ranges",
        [
          Alcotest.test_case "multi-cursor union" `Quick test_multi_cursor_unions_ranges;
          Alcotest.test_case "multi-cursor empties" `Quick test_multi_cursor_empty_ranges;
          Alcotest.test_case "inclusive/exclusive" `Quick test_range_inclusive_exclusive;
          Alcotest.test_case "duplicates" `Quick test_range_with_duplicates;
          Alcotest.test_case "composite prefix" `Quick test_composite_prefix_range;
          Alcotest.test_case "cursor consumed" `Quick test_cursor_consumed_and_exhaustion;
          QCheck_alcotest.to_alcotest prop_range_matches_filter;
        ] );
      ( "estimate",
        [
          Alcotest.test_case "exact at leaf" `Quick test_estimate_exact_at_leaf;
          Alcotest.test_case "paper formula accuracy" `Quick test_estimate_paper_formula;
          Alcotest.test_case "cheapness" `Quick test_estimate_cheapness;
          Alcotest.test_case "empty range exact zero" `Quick
            test_estimate_empty_range_exact_zero;
          Alcotest.test_case "selectivity clamp" `Quick test_estimate_selectivity_clamped;
          Alcotest.test_case "matches copy-and-scan reference" `Quick
            test_estimate_matches_reference;
        ] );
      ( "sampling",
        [
          Alcotest.test_case "uniformity" `Quick test_sampling_uniformity;
          Alcotest.test_case "ranked cheaper than a/r" `Quick test_ranked_cheaper_than_ar;
          Alcotest.test_case "estimate_fraction" `Quick test_estimate_fraction;
          Alcotest.test_case "empty tree" `Quick test_sampling_empty_tree;
        ] );
      ( "edge-cases",
        [
          Alcotest.test_case "string/composite keys" `Quick test_string_and_composite_keys;
          Alcotest.test_case "fanout-3 stress" `Quick test_minimum_fanout_stress;
          Alcotest.test_case "height shrinks" `Quick test_height_shrinks_after_mass_delete;
          Alcotest.test_case "all duplicates" `Quick test_all_duplicate_keys;
          Alcotest.test_case "NULL keys first" `Quick test_null_keys_sort_first;
        ] );
      ("cost", [ Alcotest.test_case "scans charge pool" `Quick test_scans_charge_pool ]);
    ]
