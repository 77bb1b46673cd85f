(* Unit and property tests for rdb_util. *)

open Rdb_util

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-9))

(* --- prng ----------------------------------------------------------- *)

let test_prng_determinism () =
  let a = Prng.create ~seed:42 and b = Prng.create ~seed:42 in
  for _ = 1 to 100 do
    check_int "same stream" (Prng.int a 1000) (Prng.int b 1000)
  done

let test_prng_seed_differs () =
  let a = Prng.create ~seed:1 and b = Prng.create ~seed:2 in
  let same = ref 0 in
  for _ = 1 to 50 do
    if Prng.int a 1_000_000 = Prng.int b 1_000_000 then incr same
  done;
  check "streams differ" true (!same < 5)

let test_prng_bounds () =
  let g = Prng.create ~seed:7 in
  for _ = 1 to 1000 do
    let v = Prng.int g 10 in
    check "in bounds" true (v >= 0 && v < 10);
    let f = Prng.float g 2.5 in
    check "float bounds" true (f >= 0.0 && f < 2.5);
    let x = Prng.int_in g (-5) 5 in
    check "int_in bounds" true (x >= -5 && x <= 5)
  done

let test_prng_uniformity () =
  let g = Prng.create ~seed:3 in
  let buckets = Array.make 10 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let i = Prng.int g 10 in
    buckets.(i) <- buckets.(i) + 1
  done;
  Array.iter
    (fun c ->
      let frac = float_of_int c /. float_of_int n in
      check "bucket near 0.1" true (Float.abs (frac -. 0.1) < 0.01))
    buckets

let test_prng_shuffle_permutes () =
  let g = Prng.create ~seed:11 in
  let a = Array.init 100 Fun.id in
  Prng.shuffle g a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 100 Fun.id) sorted

let test_prng_normal_moments () =
  let g = Prng.create ~seed:13 in
  let xs = Array.init 50_000 (fun _ -> Prng.normal g ~mean:5.0 ~stddev:2.0) in
  check "mean" true (Float.abs (Stats.mean xs -. 5.0) < 0.05);
  check "stddev" true (Float.abs (Stats.stddev xs -. 2.0) < 0.05)

let test_prng_split_independent () =
  let g = Prng.create ~seed:17 in
  let h = Prng.split g in
  let same = ref 0 in
  for _ = 1 to 50 do
    if Prng.int g 1_000_000 = Prng.int h 1_000_000 then incr same
  done;
  check "split independent" true (!same < 5)

(* --- dynarray ------------------------------------------------------- *)

let test_dynarray_push_get () =
  let d = Dynarray.create () in
  for i = 0 to 999 do
    Dynarray.push d (i * 2)
  done;
  check_int "length" 1000 (Dynarray.length d);
  check_int "get 500" 1000 (Dynarray.get d 500);
  check_int "last" 1998 (Option.get (Dynarray.last d))

let test_dynarray_pop () =
  let d = Dynarray.of_list [ 1; 2; 3 ] in
  check_int "pop" 3 (Option.get (Dynarray.pop d));
  check_int "len" 2 (Dynarray.length d);
  check "pop empty" true (Dynarray.pop (Dynarray.create ()) = None)

let test_dynarray_truncate_sort () =
  let d = Dynarray.of_list [ 5; 3; 9; 1; 7 ] in
  Dynarray.sort compare d;
  Alcotest.(check (list int)) "sorted" [ 1; 3; 5; 7; 9 ] (Dynarray.to_list d);
  Dynarray.truncate d 2;
  Alcotest.(check (list int)) "truncated" [ 1; 3 ] (Dynarray.to_list d)

let test_dynarray_bounds () =
  let d = Dynarray.of_list [ 1 ] in
  Alcotest.check_raises "get oob" (Invalid_argument "Dynarray.get") (fun () ->
      ignore (Dynarray.get d 1));
  Alcotest.check_raises "set oob" (Invalid_argument "Dynarray.set") (fun () ->
      Dynarray.set d (-1) 0)

let test_dynarray_works_with_floats () =
  (* Guards the flat-float-array representation. *)
  let d = Dynarray.create () in
  for i = 0 to 99 do
    Dynarray.push d (float_of_int i /. 3.0)
  done;
  check_float "float get" (50.0 /. 3.0) (Dynarray.get d 50)

(* --- sorted --------------------------------------------------------- *)

let test_sorted_bounds () =
  let a = [| 1; 3; 3; 5; 9 |] in
  let lb = Sorted.lower_bound ~cmp:compare a ~len:5 in
  let ub = Sorted.upper_bound ~cmp:compare a ~len:5 in
  check_int "lb 3" 1 (lb 3);
  check_int "ub 3" 3 (ub 3);
  check_int "lb 0" 0 (lb 0);
  check_int "lb 10" 5 (lb 10);
  check "mem" true (Sorted.mem ~cmp:compare a ~len:5 5);
  check "not mem" false (Sorted.mem ~cmp:compare a ~len:5 4)

let test_sorted_set_ops () =
  let a = [| 1; 2; 4; 8 |] and b = [| 2; 3; 4; 9 |] in
  Alcotest.(check (array int)) "intersect" [| 2; 4 |] (Sorted.intersect ~cmp:compare a b);
  Alcotest.(check (array int))
    "union" [| 1; 2; 3; 4; 8; 9 |]
    (Sorted.union ~cmp:compare a b)

let prop_set_ops_match_model =
  QCheck.Test.make ~name:"sorted set ops match list model" ~count:200
    QCheck.(pair (list small_nat) (list small_nat))
    (fun (xs, ys) ->
      let dedup l = List.sort_uniq compare l in
      let a = Array.of_list (dedup xs) and b = Array.of_list (dedup ys) in
      let inter = Array.to_list (Rdb_util.Sorted.intersect ~cmp:compare a b) in
      let union = Array.to_list (Rdb_util.Sorted.union ~cmp:compare a b) in
      let model_inter = List.filter (fun x -> List.mem x (dedup ys)) (dedup xs) in
      let model_union = dedup (xs @ ys) in
      inter = model_inter && union = model_union)

let prop_merge_dedup =
  QCheck.Test.make ~name:"merge_dedup sorts and dedups" ~count:200
    QCheck.(list small_nat)
    (fun xs ->
      Array.to_list (Rdb_util.Sorted.merge_dedup ~cmp:compare (Array.of_list xs))
      = List.sort_uniq compare xs)

(* --- stats ---------------------------------------------------------- *)

let test_stats_basics () =
  let xs = [| 1.0; 2.0; 3.0; 4.0 |] in
  check_float "mean" 2.5 (Stats.mean xs);
  check_float "variance" 1.25 (Stats.variance xs);
  check_float "median" 2.5 (Stats.median xs);
  check_float "p0" 1.0 (Stats.percentile xs 0.0);
  check_float "p100" 4.0 (Stats.percentile xs 1.0)

let test_stats_empty () =
  check_float "mean empty" 0.0 (Stats.mean [||]);
  Alcotest.check_raises "percentile empty"
    (Invalid_argument "Stats.percentile: empty array") (fun () ->
      ignore (Stats.percentile [||] 0.5))

(* --- yao ------------------------------------------------------------ *)

let test_yao_edges () =
  check_float "k=0" 0.0 (Yao.blocks ~n:1000 ~per_block:10 ~k:0);
  check_float "k>=n" 100.0 (Yao.blocks ~n:1000 ~per_block:10 ~k:1000);
  check_float "k=n-1 still ~all" 100.0 (Yao.blocks ~n:1000 ~per_block:10 ~k:995)

let test_yao_monotone () =
  let prev = ref 0.0 in
  for k = 1 to 100 do
    let b = Yao.blocks ~n:1000 ~per_block:10 ~k in
    check "monotone in k" true (b >= !prev);
    prev := b
  done

let test_yao_single_record_blocks () =
  (* One record per block: k draws touch exactly k blocks. *)
  check_float "identity" 50.0 (Yao.blocks ~n:100 ~per_block:1 ~k:50)

let test_yao_vs_simulation () =
  let g = Prng.create ~seed:23 in
  let n = 2000 and m = 20 and k = 150 in
  let trials = 300 in
  let acc = ref 0 in
  for _ = 1 to trials do
    let picked = Hashtbl.create 64 in
    let records = Array.init n Fun.id in
    Prng.shuffle g records;
    for i = 0 to k - 1 do
      Hashtbl.replace picked (records.(i) / m) ()
    done;
    acc := !acc + Hashtbl.length picked
  done;
  let simulated = float_of_int !acc /. float_of_int trials in
  let formula = Yao.blocks ~n ~per_block:m ~k in
  check "formula matches simulation" true (Float.abs (simulated -. formula) < 2.0)

(* Yao's formula as one loop over the k draws, with no table: the
   reference the memoized [Yao.blocks] must match bit for bit. *)
let yao_loop ~n ~per_block ~k =
  if n <= 0 || per_block <= 0 || k <= 0 then 0.0
  else begin
    let b = (n + per_block - 1) / per_block in
    if k >= n then float_of_int b
    else begin
      let m = per_block in
      if n - m < k then float_of_int b
      else begin
        let log_miss = ref 0.0 in
        for i = 0 to k - 1 do
          log_miss :=
            !log_miss
            +. log (float_of_int (n - m - i))
            -. log (float_of_int (n - i))
        done;
        float_of_int b *. (1.0 -. exp !log_miss)
      end
    end
  end

(* Interleaved calls over 40 (n, per_block) keys (more than the 16
   tables kept, so the bound clears them), each key's k growing and
   shrinking at random: table extension, table hits and the reset are
   all exercised. *)
let test_yao_matches_loop () =
  let g = Prng.create ~seed:41 in
  let keys =
    Array.init 40 (fun _ -> (1 + Prng.int g 1200, 1 + Prng.int g 40))
  in
  let mismatches = ref 0 in
  for _ = 1 to 6000 do
    (* a few keys carry most calls, so tables are hit as well as built *)
    let n, per_block = keys.(if Prng.int g 3 = 0 then Prng.int g 40 else Prng.int g 4) in
    let k = if Prng.int g 4 = 0 then Prng.int g (n + 3) else Prng.int g (1 + (n / 8)) in
    let got = Yao.blocks ~n ~per_block ~k and want = yao_loop ~n ~per_block ~k in
    if Int64.bits_of_float got <> Int64.bits_of_float want then incr mismatches
  done;
  check_int "bit-identical to the loop" 0 !mismatches

let () =
  Alcotest.run "rdb_util"
    [
      ( "prng",
        [
          Alcotest.test_case "determinism" `Quick test_prng_determinism;
          Alcotest.test_case "seeds differ" `Quick test_prng_seed_differs;
          Alcotest.test_case "bounds" `Quick test_prng_bounds;
          Alcotest.test_case "uniformity" `Quick test_prng_uniformity;
          Alcotest.test_case "shuffle permutes" `Quick test_prng_shuffle_permutes;
          Alcotest.test_case "normal moments" `Quick test_prng_normal_moments;
          Alcotest.test_case "split independent" `Quick test_prng_split_independent;
        ] );
      ( "dynarray",
        [
          Alcotest.test_case "push/get" `Quick test_dynarray_push_get;
          Alcotest.test_case "pop" `Quick test_dynarray_pop;
          Alcotest.test_case "truncate/sort" `Quick test_dynarray_truncate_sort;
          Alcotest.test_case "bounds" `Quick test_dynarray_bounds;
          Alcotest.test_case "floats" `Quick test_dynarray_works_with_floats;
        ] );
      ( "sorted",
        [
          Alcotest.test_case "bounds" `Quick test_sorted_bounds;
          Alcotest.test_case "set ops" `Quick test_sorted_set_ops;
          QCheck_alcotest.to_alcotest prop_set_ops_match_model;
          QCheck_alcotest.to_alcotest prop_merge_dedup;
        ] );
      ( "stats",
        [
          Alcotest.test_case "basics" `Quick test_stats_basics;
          Alcotest.test_case "empty" `Quick test_stats_empty;
        ] );
      ( "yao",
        [
          Alcotest.test_case "edges" `Quick test_yao_edges;
          Alcotest.test_case "monotone" `Quick test_yao_monotone;
          Alcotest.test_case "per_block=1" `Quick test_yao_single_record_blocks;
          Alcotest.test_case "vs simulation" `Quick test_yao_vs_simulation;
          Alcotest.test_case "matches the loop" `Quick test_yao_matches_loop;
        ] );
    ]
