open Rdb_data
module Prng = Rdb_util.Prng
module Dynarray = Rdb_util.Dynarray

type stats = {
  samples : (Btree.key * Rid.t) array;
  descents : int;
  nodes_visited : int;
}

let acceptance_rejection rng tree meter ~n =
  (* Bounds the retry loop on very unbalanced trees. *)
  let max_descents = 50 * Int.max 1 n in
  let f = float_of_int (Btree.fanout tree) in
  let out = Dynarray.create () in
  let descents = ref 0 and nodes = ref 0 in
  let card = Btree.cardinality tree in
  if card > 0 then begin
    while Dynarray.length out < n && !descents < max_descents do
      incr descents;
      (* One random descent; acceptance probability accumulates the
         fill factor of each visited node. *)
      let rec walk node p =
        incr nodes;
        match Btree.view tree meter node with
        | Btree.Leaf_view entries ->
            let len = Array.length entries in
            if len = 0 then None
            else begin
              let p = p *. (float_of_int len /. f) in
              let e = entries.(Prng.int rng len) in
              if Prng.float rng 1.0 < p then Some e else None
            end
        | Btree.Internal_view (_, children) ->
            let len = Array.length children in
            let p = p *. (float_of_int len /. f) in
            walk children.(Prng.int rng len) p
      in
      match walk (Btree.root tree) 1.0 with
      | Some e -> Dynarray.push out e
      | None -> ()
    done
  end;
  { samples = Dynarray.to_array out; descents = !descents; nodes_visited = !nodes }

let ranked rng tree meter ~n =
  let out = Dynarray.create () in
  let nodes = ref 0 in
  let card = Btree.cardinality tree in
  let descents = if card = 0 then 0 else n in
  if card > 0 then begin
    for _ = 1 to n do
      let rec walk node =
        incr nodes;
        match Btree.view tree meter node with
        | Btree.Leaf_view entries -> entries.(Prng.int rng (Array.length entries))
        | Btree.Internal_view (_, children) ->
            (* Choose a child proportionally to its subtree count. *)
            let total = Btree.subtree_count tree node in
            let target = Prng.int rng total in
            let rec pick i acc =
              let c = children.(i) in
              let acc = acc + Btree.subtree_count tree c in
              if target < acc || i = Array.length children - 1 then c
              else pick (i + 1) acc
            in
            walk (pick 0 0)
      in
      Dynarray.push out (walk (Btree.root tree))
    done
  end;
  { samples = Dynarray.to_array out; descents; nodes_visited = !nodes }

let estimate_fraction rng tree meter ~n pred =
  let { samples; _ } = ranked rng tree meter ~n in
  let len = Array.length samples in
  if len = 0 then 0.0
  else begin
    let hits =
      Array.fold_left (fun acc (k, rid) -> if pred k rid then acc + 1 else acc) 0 samples
    in
    float_of_int hits /. float_of_int len
  end
