(* [Ant92]/[OlRo89] — random sampling from B+-trees.

   The §5 estimation refinement: sampling estimates selectivities that
   descent-to-split cannot (arbitrary predicates).  We compare the
   pseudo-ranked sampler against classic acceptance/rejection at equal
   sample sizes: accuracy is similar, but acceptance/rejection pays for
   rejected descents. *)

open Rdb_btree
open Rdb_data

let name = "sampling"
let description = "pseudo-ranked vs acceptance/rejection B-tree sampling ([Ant92] vs [OlRo89])"

let run () =
  Bench_common.section "Experiment sampling — B+-tree random sampling";
  let pool = Rdb_storage.Buffer_pool.create ~capacity:100_000 () in
  let t = Btree.create ~fanout:32 pool in
  let m = Rdb_storage.Cost.create () in
  let rng = Rdb_util.Prng.create ~seed:53 in
  let n = 60_000 in
  for i = 0 to n - 1 do
    Btree.insert t m
      [| Value.int (Rdb_util.Prng.int rng 10_000) |]
      (Rid.make ~page:(i / 32) ~slot:(i mod 32))
  done;
  (* True fraction of keys < 2500. *)
  let true_frac =
    let c = ref 0 and tot = ref 0 in
    Btree.iter_range t m Btree.full_range (fun key _ ->
        incr tot;
        match key.(0) with Value.Int v when v < 2500 -> incr c | _ -> ());
    float_of_int !c /. float_of_int !tot
  in
  Printf.printf "tree: %d entries, height %d; true fraction(key < 2500) = %.4f\n" n
    (Btree.height t) true_frac;
  let is_hit (key : Btree.key) = match key.(0) with Value.Int v -> v < 2500 | _ -> false in
  let frac (s : Sampling.stats) =
    let hits = Array.fold_left (fun acc (k, _) -> if is_hit k then acc + 1 else acc) 0 s.Sampling.samples in
    float_of_int hits /. float_of_int (Int.max 1 (Array.length s.Sampling.samples))
  in
  let rows =
    List.concat_map
      (fun size ->
        let rng = Rdb_util.Prng.create ~seed:67 in
        let ranked = Sampling.ranked rng t (Rdb_storage.Cost.create ()) ~n:size in
        let rng = Rdb_util.Prng.create ~seed:67 in
        let ar = Sampling.acceptance_rejection rng t (Rdb_storage.Cost.create ()) ~n:size in
        [
          [
            string_of_int size; "pseudo-ranked";
            Bench_common.f4 (frac ranked);
            Bench_common.f4 (Float.abs (frac ranked -. true_frac));
            string_of_int ranked.Sampling.descents;
            string_of_int ranked.Sampling.nodes_visited;
          ];
          [
            string_of_int size; "accept/reject";
            Bench_common.f4 (frac ar);
            Bench_common.f4 (Float.abs (frac ar -. true_frac));
            string_of_int ar.Sampling.descents;
            string_of_int ar.Sampling.nodes_visited;
          ];
        ])
      [ 100; 1000; 5000 ]
  in
  Bench_common.table
    ~header:[ "samples"; "method"; "estimate"; "abs error"; "descents"; "node visits" ]
    rows;
  Bench_common.subsection "paper checkpoints";
  let rng = Rdb_util.Prng.create ~seed:71 in
  let ranked = Sampling.ranked rng t (Rdb_storage.Cost.create ()) ~n:1000 in
  let ar = Sampling.acceptance_rejection rng t (Rdb_storage.Cost.create ()) ~n:1000 in
  Printf.printf
    "pseudo-ranked needs ~%.0fx fewer node visits than acceptance/rejection: %b\n"
    (float_of_int ar.Sampling.nodes_visited /. float_of_int ranked.Sampling.nodes_visited)
    (ar.Sampling.nodes_visited > 2 * ranked.Sampling.nodes_visited);
  Printf.printf "both estimators land within 0.02 of the truth: %b\n"
    (Float.abs (frac ranked -. true_frac) < 0.02 && Float.abs (frac ar -. true_frac) < 0.02)
