type result = {
  estimate : float;
  exact : bool;
  split_level : int;
  k : int;
  nodes_visited : int;
}

let range tree meter (r : Btree.range) =
  match (r.Btree.lo, r.Btree.hi) with
  | Btree.Unbounded, Btree.Unbounded ->
      (* The whole index: the maintained cardinality is exact and free
         of any descent. *)
      ignore meter;
      {
        estimate = float_of_int (Btree.cardinality tree);
        exact = true;
        split_level = Btree.height tree;
        k = 1;
        nodes_visited = 0;
      }
  | _ ->
  let rec descend node level visited =
    let first, past = Btree.span tree meter node r in
    if Btree.is_leaf node then
      let k = past - first in
      { estimate = float_of_int k; exact = true; split_level = 1; k;
        nodes_visited = visited + 1 }
    else if first = past then descend (Btree.child node first) (level - 1) (visited + 1)
    else begin
      (* Split node found: k+1 children contain the range; the two
         edge children jointly count as one full child.  A single
         average fanout as in the paper: the geometric blend of leaf
         fill and internal fill. *)
      let k = past - first in
      let leaf = Btree.avg_leaf_entries tree in
      let f = Float.max 1.0 (sqrt (leaf *. Btree.avg_internal_children tree)) in
      { estimate = float_of_int k *. (f ** float_of_int (level - 2)) *. leaf;
        exact = false; split_level = level; k; nodes_visited = visited + 1 }
    end
  in
  descend (Btree.root tree) (Btree.height tree) 0

let selectivity tree meter r =
  let card = Btree.cardinality tree in
  if card = 0 then 0.0
  else Rdb_util.Stats.clamp ((range tree meter r).estimate /. float_of_int card) ~lo:0.0 ~hi:1.0

let ranges tree meter (rs : Btree.range list) =
  List.fold_left
    (fun acc r ->
      let res = range tree meter r in
      {
        estimate = acc.estimate +. res.estimate;
        exact = acc.exact && res.exact;
        split_level = Int.max acc.split_level res.split_level;
        k = acc.k + res.k;
        nodes_visited = acc.nodes_visited + res.nodes_visited;
      })
    { estimate = 0.0; exact = true; split_level = 1; k = 0; nodes_visited = 0 }
    rs
