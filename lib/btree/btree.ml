open Rdb_data
open Rdb_storage
module Dynarray = Rdb_util.Dynarray

type key = Value.t array

type entry = key * Rid.t

(* Top-level rather than a local closure over [a], [b] and [n]: without
   flambda such a closure is heap-allocated on every comparison. *)
let rec compare_key_from (a : key) (b : key) n i =
  if i >= n then 0
  else begin
    let c = Value.compare a.(i) b.(i) in
    if c <> 0 then c else compare_key_from a b n (i + 1)
  end

(* Prefix-lexicographic: a shorter key equal on its length compares
   equal, so partial keys act as range bounds over composite keys. *)
let compare_key (a : key) (b : key) =
  compare_key_from a b (Int.min (Array.length a) (Array.length b)) 0

let compare_entry ((ka, ra) : entry) ((kb, rb) : entry) =
  let c = compare_key ka kb in
  if c <> 0 then c else Rid.compare ra rb

type node = Leaf of leaf | Internal of internal

and leaf = {
  leaf_id : int;
  entries : entry Dynarray.t;
  mutable next : leaf option;
  (* Lazily-maintained content checksum (see Heap_file): [written]
     invalidates, the next cold read under a fault injector recomputes
     or verifies.  Internal nodes carry no checksum: their [total] and
     separators mutate on paths that are not charged as writes, so a
     checksum there would either false-positive or change the seed
     cost profile. *)
  mutable crc : int;
  mutable crc_valid : bool;
}

and internal = {
  node_id : int;
  seps : entry Dynarray.t; (* seps.(i) = minimum entry of children.(i+1) *)
  children : node Dynarray.t;
  mutable total : int;
}

(* [leaves], [internals] and [inner_children] (the children of all
   internal nodes) are the tree's shape, maintained where nodes are born
   and die, so the planner's averages cost no walk of the tree. *)
type t = {
  pool : Buffer_pool.t;
  file : int;
  f : int;
  mutable root : node;
  mutable next_block : int;
  mutable leaves : int;
  mutable internals : int;
  mutable inner_children : int;
}

let node_total = function
  | Leaf l -> Dynarray.length l.entries
  | Internal n -> n.total

let node_id = function Leaf l -> l.leaf_id | Internal n -> n.node_id

let fresh_leaf ~leaf_id ~entries ~next =
  { leaf_id; entries; next; crc = Fault.crc_init; crc_valid = false }

let create ?(fanout = 64) pool =
  if fanout < 3 then invalid_arg "Btree.create: fanout < 3";
  let file = Buffer_pool.fresh_file pool in
  Buffer_pool.classify pool ~file Fault.Index;
  let t =
    {
      pool;
      file;
      f = fanout;
      root = Leaf (fresh_leaf ~leaf_id:0 ~entries:(Dynarray.create ()) ~next:None);
      next_block = 1;
      leaves = 1;
      internals = 0;
      inner_children = 0;
    }
  in
  t

let fanout t = t.f
let file_id t = t.file

let fresh_block t =
  let id = t.next_block in
  t.next_block <- id + 1;
  id

let leaf_crc (l : leaf) =
  Dynarray.fold_left
    (fun acc ((k : key), (rid : Rid.t)) ->
      let acc =
        Array.fold_left (fun acc v -> Fault.crc_int acc (Hashtbl.hash v)) acc k
      in
      Fault.crc_int (Fault.crc_int acc rid.page) rid.slot)
    Fault.crc_init l.entries

let audit_leaf t (l : leaf) inj =
  if not l.crc_valid then begin
    l.crc <- leaf_crc l;
    l.crc_valid <- true
  end
  else begin
    if Fault.take_corruption inj ~file:t.file ~index:l.leaf_id then
      l.crc <- Fault.crc_scramble l.crc;
    if leaf_crc l <> l.crc then
      raise
        (Fault.Injected
           { Fault.file = t.file; index = l.leaf_id; class_ = Fault.Index;
             kind = Fault.Corrupt })
  end

let touch t meter node =
  match Buffer_pool.touch_read t.pool meter { file = t.file; index = node_id node } with
  | `Hit -> ()
  | `Miss -> (
      match (node, Buffer_pool.injector t.pool) with
      | Leaf l, Some inj -> audit_leaf t l inj
      | _ -> ())

let written t meter node =
  (match node with Leaf l -> l.crc_valid <- false | Internal _ -> ());
  Buffer_pool.write t.pool meter { file = t.file; index = node_id node }

let cardinality t = node_total t.root

let rec height_of = function
  | Leaf _ -> 1
  | Internal n -> 1 + height_of (Dynarray.get n.children 0)

let height t = height_of t.root

let rec fold_nodes f acc node =
  let acc = f acc node in
  match node with
  | Leaf _ -> acc
  | Internal n -> Dynarray.fold_left (fold_nodes f) acc n.children

let node_count t = t.leaves + t.internals
let leaf_count t = t.leaves

let leaf_blocks t =
  List.rev
    (fold_nodes
       (fun acc n -> match n with Leaf l -> l.leaf_id :: acc | Internal _ -> acc)
       [] t.root)

let avg_leaf_entries t = float_of_int (cardinality t) /. float_of_int t.leaves

let avg_internal_children t =
  if t.internals = 0 then float_of_int (Int.max 1 (cardinality t))
  else float_of_int t.inner_children /. float_of_int t.internals

(* --- search helpers ------------------------------------------------ *)

let dyn_lower_bound cmp d x =
  let lo = ref 0 and hi = ref (Dynarray.length d) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cmp (Dynarray.get d mid) x < 0 then lo := mid + 1 else hi := mid
  done;
  !lo

let dyn_upper_bound cmp d x =
  let lo = ref 0 and hi = ref (Dynarray.length d) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cmp (Dynarray.get d mid) x <= 0 then lo := mid + 1 else hi := mid
  done;
  !lo

(* Child slot an entry belongs to. *)
let child_of_entry (n : internal) e = dyn_upper_bound compare_entry n.seps e

(* --- insertion ------------------------------------------------------ *)

type split = { sep : entry; right : node }

let dyn_insert_at d i x =
  (* Shift-right insert preserving order. *)
  Dynarray.push d x;
  let len = Dynarray.length d in
  let j = ref (len - 1) in
  while !j > i do
    Dynarray.set d !j (Dynarray.get d (!j - 1));
    decr j
  done;
  Dynarray.set d i x

let dyn_remove_at d i =
  let len = Dynarray.length d in
  for j = i to len - 2 do
    Dynarray.set d j (Dynarray.get d (j + 1))
  done;
  (match Dynarray.pop d with Some _ -> () | None -> assert false)

let split_dyn d at =
  let right = Dynarray.create () in
  let len = Dynarray.length d in
  for i = at to len - 1 do
    Dynarray.push right (Dynarray.get d i)
  done;
  Dynarray.truncate d at;
  right

let rec insert_node t meter node e : bool * split option =
  touch t meter node;
  match node with
  | Leaf l ->
      let pos = dyn_lower_bound compare_entry l.entries e in
      if pos < Dynarray.length l.entries && compare_entry (Dynarray.get l.entries pos) e = 0
      then (false, None)
      else begin
        dyn_insert_at l.entries pos e;
        written t meter node;
        if Dynarray.length l.entries <= t.f then (true, None)
        else begin
          let at = Dynarray.length l.entries / 2 in
          let right_entries = split_dyn l.entries at in
          let right =
            fresh_leaf ~leaf_id:(fresh_block t) ~entries:right_entries ~next:l.next
          in
          l.next <- Some right;
          t.leaves <- t.leaves + 1;
          written t meter (Leaf right);
          (true, Some { sep = Dynarray.get right.entries 0; right = Leaf right })
        end
      end
  | Internal n ->
      let i = child_of_entry n e in
      let inserted, split = insert_node t meter (Dynarray.get n.children i) e in
      if inserted then n.total <- n.total + 1;
      (match split with
      | None -> ()
      | Some { sep; right } ->
          dyn_insert_at n.seps i sep;
          dyn_insert_at n.children (i + 1) right;
          t.inner_children <- t.inner_children + 1;
          written t meter node);
      if Dynarray.length n.children <= t.f then (inserted, None)
      else begin
        (* Split internal: middle separator moves up. *)
        let mid = Dynarray.length n.seps / 2 in
        let up = Dynarray.get n.seps mid in
        let right_seps = split_dyn n.seps (mid + 1) in
        (match Dynarray.pop n.seps with Some _ -> () | None -> assert false);
        let right_children = split_dyn n.children (mid + 1) in
        let right_total =
          Dynarray.fold_left (fun acc c -> acc + node_total c) 0 right_children
        in
        let right =
          { node_id = fresh_block t; seps = right_seps; children = right_children;
            total = right_total }
        in
        n.total <- n.total - right_total;
        t.internals <- t.internals + 1;
        written t meter node;
        written t meter (Internal right);
        (inserted, Some { sep = up; right = Internal right })
      end

let insert t meter k rid =
  let inserted, split = insert_node t meter t.root (k, rid) in
  ignore inserted;
  match split with
  | None -> ()
  | Some { sep; right } ->
      let children = Dynarray.create () in
      Dynarray.push children t.root;
      Dynarray.push children right;
      let seps = Dynarray.create () in
      Dynarray.push seps sep;
      let root =
        { node_id = fresh_block t; seps; children;
          total = node_total t.root + node_total right }
      in
      t.root <- Internal root;
      t.internals <- t.internals + 1;
      t.inner_children <- t.inner_children + 2;
      written t meter t.root

(* --- deletion ------------------------------------------------------- *)

let leaf_min t = t.f / 2
let internal_min_children t = (t.f + 1) / 2

let rec delete_node t meter node e : bool =
  touch t meter node;
  match node with
  | Leaf l ->
      let pos = dyn_lower_bound compare_entry l.entries e in
      if pos < Dynarray.length l.entries && compare_entry (Dynarray.get l.entries pos) e = 0
      then begin
        dyn_remove_at l.entries pos;
        written t meter node;
        true
      end
      else false
  | Internal n ->
      let i = child_of_entry n e in
      let child = Dynarray.get n.children i in
      let removed = delete_node t meter child e in
      if removed then begin
        n.total <- n.total - 1;
        rebalance t meter n i
      end;
      removed

and underfull t = function
  | Leaf l -> Dynarray.length l.entries < leaf_min t
  | Internal n -> Dynarray.length n.children < internal_min_children t

and rebalance t meter (n : internal) i =
  let child = Dynarray.get n.children i in
  if underfull t child then begin
    let left = if i > 0 then Some (Dynarray.get n.children (i - 1)) else None in
    let right =
      if i + 1 < Dynarray.length n.children then Some (Dynarray.get n.children (i + 1))
      else None
    in
    let can_lend = function
      | Some (Leaf l) -> Dynarray.length l.entries > leaf_min t
      | Some (Internal m) -> Dynarray.length m.children > internal_min_children t
      | None -> false
    in
    if can_lend right then borrow_right t meter n i
    else if can_lend left then borrow_left t meter n i
    else if right <> None then merge t meter n i
    else if left <> None then merge t meter n (i - 1)
  end

and borrow_right t meter n i =
  match (Dynarray.get n.children i, Dynarray.get n.children (i + 1)) with
  | Leaf l, Leaf r ->
      let e = Dynarray.get r.entries 0 in
      dyn_remove_at r.entries 0;
      Dynarray.push l.entries e;
      Dynarray.set n.seps i (Dynarray.get r.entries 0);
      written t meter (Leaf l);
      written t meter (Leaf r)
  | Internal l, Internal r ->
      let sep = Dynarray.get n.seps i in
      let moved_child = Dynarray.get r.children 0 in
      let moved_total = node_total moved_child in
      dyn_remove_at r.children 0;
      let new_sep = Dynarray.get r.seps 0 in
      dyn_remove_at r.seps 0;
      Dynarray.push l.seps sep;
      Dynarray.push l.children moved_child;
      l.total <- l.total + moved_total;
      r.total <- r.total - moved_total;
      Dynarray.set n.seps i new_sep;
      written t meter (Internal l);
      written t meter (Internal r)
  | _ -> assert false

and borrow_left t meter n i =
  match (Dynarray.get n.children (i - 1), Dynarray.get n.children i) with
  | Leaf l, Leaf r ->
      let e =
        match Dynarray.pop l.entries with Some e -> e | None -> assert false
      in
      dyn_insert_at r.entries 0 e;
      Dynarray.set n.seps (i - 1) e;
      written t meter (Leaf l);
      written t meter (Leaf r)
  | Internal l, Internal r ->
      let sep = Dynarray.get n.seps (i - 1) in
      let moved_child =
        match Dynarray.pop l.children with Some c -> c | None -> assert false
      in
      let moved_total = node_total moved_child in
      let new_sep =
        match Dynarray.pop l.seps with Some s -> s | None -> assert false
      in
      dyn_insert_at r.seps 0 sep;
      dyn_insert_at r.children 0 moved_child;
      l.total <- l.total - moved_total;
      r.total <- r.total + moved_total;
      Dynarray.set n.seps (i - 1) new_sep;
      written t meter (Internal l);
      written t meter (Internal r)
  | _ -> assert false

and merge t meter n i =
  (* Merge child i+1 into child i; drop sep i. *)
  (match (Dynarray.get n.children i, Dynarray.get n.children (i + 1)) with
  | Leaf l, Leaf r ->
      Dynarray.append l.entries r.entries;
      l.next <- r.next;
      t.leaves <- t.leaves - 1;
      written t meter (Leaf l)
  | Internal l, Internal r ->
      Dynarray.push l.seps (Dynarray.get n.seps i);
      Dynarray.append l.seps r.seps;
      Dynarray.append l.children r.children;
      l.total <- l.total + r.total;
      t.internals <- t.internals - 1;
      written t meter (Internal l)
  | _ -> assert false);
  dyn_remove_at n.seps i;
  dyn_remove_at n.children (i + 1);
  t.inner_children <- t.inner_children - 1

let delete t meter k rid =
  let removed = delete_node t meter t.root (k, rid) in
  (match t.root with
  | Internal n when Dynarray.length n.children = 1 ->
      t.root <- Dynarray.get n.children 0;
      t.internals <- t.internals - 1;
      t.inner_children <- t.inner_children - 1
  | _ -> ());
  removed

let mem t meter k rid =
  let e = (k, rid) in
  let rec go node =
    touch t meter node;
    match node with
    | Leaf l ->
        let pos = dyn_lower_bound compare_entry l.entries e in
        pos < Dynarray.length l.entries
        && compare_entry (Dynarray.get l.entries pos) e = 0
    | Internal n -> go (Dynarray.get n.children (child_of_entry n e))
  in
  go t.root

(* --- ranges --------------------------------------------------------- *)

type bound = Incl of key | Excl of key | Unbounded

type range = { lo : bound; hi : bound }

let full_range = { lo = Unbounded; hi = Unbounded }

let range_incl lo hi = { lo = Incl lo; hi = Incl hi }

let point_range k = { lo = Incl k; hi = Incl k }

let key_ge_lo bound k =
  match bound with
  | Unbounded -> true
  | Incl lo -> compare_key k lo >= 0
  | Excl lo -> compare_key k lo > 0

let key_le_hi bound k =
  match bound with
  | Unbounded -> true
  | Incl hi -> compare_key k hi <= 0
  | Excl hi -> compare_key k hi < 0

let in_range r k = key_ge_lo r.lo k && key_le_hi r.hi k

(* Length of the prefix of sorted [d] whose keys compare below [k]:
   strictly when [lt = 0], or equal too when [lt = 1].  Binary search
   finds the same index a linear count would, because the prefix order
   keeps [compare_key key k < lt] monotone along sorted entries. *)
let count_below (d : entry Dynarray.t) k lt =
  let lo = ref 0 and hi = ref (Dynarray.length d) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if compare_key (fst (Dynarray.get d mid)) k < lt then lo := mid + 1 else hi := mid
  done;
  !lo

(* Entries of [d] that fail the low bound. *)
let below_lo d = function
  | Unbounded -> 0
  | Incl k -> count_below d k 0
  | Excl k -> count_below d k 1

(* Entries of [d] that pass the high bound. *)
let within_hi d = function
  | Unbounded -> Dynarray.length d
  | Incl k -> count_below d k 1
  | Excl k -> count_below d k 0

(* --- cursor --------------------------------------------------------- *)

type cursor = {
  tree : t;
  meter : Cost.t;
  range : range;
  mutable leaf : leaf option;
  mutable pos : int;
  mutable served : int;
  mutable exhausted : bool;
}

let descend_to_leaf t meter lo =
  let rec go node =
    touch t meter node;
    match node with
    | Leaf l -> l
    | Internal n ->
        (* leftmost child that may hold an in-range key *)
        go (Dynarray.get n.children (below_lo n.seps lo))
  in
  go t.root

let cursor t meter range =
  let l = descend_to_leaf t meter range.lo in
  (* First entry satisfying the low bound within this leaf. *)
  let pos = below_lo l.entries range.lo in
  { tree = t; meter; range; leaf = Some l; pos; served = 0; exhausted = false }

let rec next c =
  if c.exhausted then None
  else begin
    match c.leaf with
    | None ->
        c.exhausted <- true;
        None
    | Some l ->
        if c.pos >= Dynarray.length l.entries then begin
          (* Touch the next leaf *before* advancing: a faulted read
             leaves the cursor at the current leaf's end, so re-calling
             [next] retries the same sibling instead of walking past
             an uncharged, unverified leaf. *)
          (match l.next with
          | Some nl -> touch c.tree c.meter (Leaf nl)
          | None -> ());
          c.leaf <- l.next;
          c.pos <- 0;
          next c
        end
        else begin
          let k, rid = Dynarray.get l.entries c.pos in
          c.pos <- c.pos + 1;
          if not (key_ge_lo c.range.lo k) then next c
          else if key_le_hi c.range.hi k then begin
            Cost.charge_cpu c.meter 1;
            c.served <- c.served + 1;
            Some (k, rid)
          end
          else begin
            c.exhausted <- true;
            None
          end
        end
  end

let consumed c = c.served

(* --- multi-range cursor ---------------------------------------------- *)

type multi_cursor = {
  mtree : t;
  mmeter : Cost.t;
  mutable pending : range list;
  mutable active : cursor option;
  mutable mserved : int;
}

let multi_cursor t meter ranges =
  { mtree = t; mmeter = meter; pending = ranges; active = None; mserved = 0 }

let rec multi_next mc =
  match mc.active with
  | Some c -> (
      match next c with
      | Some e ->
          mc.mserved <- mc.mserved + 1;
          Some e
      | None ->
          mc.active <- None;
          multi_next mc)
  | None -> (
      match mc.pending with
      | [] -> None
      | r :: rest ->
          (* Open the cursor (which descends, and may fault) before
             popping the range, so a retry re-attempts the same range
             rather than losing it. *)
          let c = cursor mc.mtree mc.mmeter r in
          mc.pending <- rest;
          mc.active <- Some c;
          multi_next mc)

let multi_consumed mc = mc.mserved

let iter_range t meter range f =
  let c = cursor t meter range in
  let rec loop () =
    match next c with
    | None -> ()
    | Some (k, rid) ->
        f k rid;
        loop ()
  in
  loop ()

let count_range t meter range =
  let n = ref 0 in
  iter_range t meter range (fun _ _ -> incr n);
  !n

(* --- structural access ---------------------------------------------- *)

type node_ref = node

type node_view =
  | Leaf_view of (key * Rid.t) array
  | Internal_view of key array * node_ref array

let root t = t.root

let view t meter node =
  touch t meter node;
  match node with
  | Leaf l -> Leaf_view (Dynarray.to_array l.entries)
  | Internal n ->
      Internal_view
        (Array.map fst (Dynarray.to_array n.seps), Dynarray.to_array n.children)

let span t meter node r =
  touch t meter node;
  (* seps.(i) is the minimum entry of child i+1, so the separators below
     a bound count the children wholly below it *)
  let d = match node with Leaf l -> l.entries | Internal n -> n.seps in
  let first = below_lo d r.lo in
  (first, Int.max first (within_hi d r.hi))

let is_leaf = function Leaf _ -> true | Internal _ -> false

let child node i =
  match node with
  | Internal n -> Dynarray.get n.children i
  | Leaf _ -> invalid_arg "Btree.child: leaf"

let subtree_count _t node = node_total node

(* --- validation ------------------------------------------------------ *)

let self_check t =
  let fail fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let rec check node ~is_root ~depth =
    match node with
    | Leaf l ->
        let n = Dynarray.length l.entries in
        if (not is_root) && n < leaf_min t then fail "underfull leaf (%d)" n
        else if n > t.f then fail "overfull leaf (%d)" n
        else begin
          let ok = ref (Ok depth) in
          for i = 1 to n - 1 do
            if
              compare_entry (Dynarray.get l.entries (i - 1)) (Dynarray.get l.entries i)
              >= 0
            then ok := fail "leaf entries out of order"
          done;
          !ok
        end
    | Internal n ->
        let c = Dynarray.length n.children in
        if Dynarray.length n.seps <> c - 1 then fail "sep/children arity mismatch"
        else if (not is_root) && c < internal_min_children t then
          fail "underfull internal (%d)" c
        else if c > t.f then fail "overfull internal (%d)" c
        else begin
          let expected_total =
            Dynarray.fold_left (fun acc ch -> acc + node_total ch) 0 n.children
          in
          if expected_total <> n.total then
            fail "bad total: stored %d actual %d" n.total expected_total
          else begin
            let rec loop i acc_depth =
              if i >= c then Ok acc_depth
              else begin
                match check (Dynarray.get n.children i) ~is_root:false ~depth:(depth + 1) with
                | Error e -> Error e
                | Ok d ->
                    if acc_depth <> -1 && d <> acc_depth then fail "uneven depth"
                    else begin
                      (* separator correctness: first entry of child i is
                         >= sep (i-1) and < sep i *)
                      if i > 0 then begin
                        let sep = Dynarray.get n.seps (i - 1) in
                        let min_e = min_entry (Dynarray.get n.children i) in
                        if compare_entry min_e sep < 0 then fail "separator too large"
                        else loop (i + 1) d
                      end
                      else loop (i + 1) d
                    end
              end
            in
            loop 0 (-1)
          end
        end
  and min_entry = function
    | Leaf l -> Dynarray.get l.entries 0
    | Internal n -> min_entry (Dynarray.get n.children 0)
  in
  let check_shape () =
    let leaves, internals, children =
      fold_nodes
        (fun (l, i, c) -> function
          | Leaf _ -> (l + 1, i, c)
          | Internal n -> (l, i + 1, c + Dynarray.length n.children))
        (0, 0, 0) t.root
    in
    if (leaves, internals, children) <> (t.leaves, t.internals, t.inner_children) then
      fail "shape counters: stored %d/%d/%d leaves/internals/children, actual %d/%d/%d"
        t.leaves t.internals t.inner_children leaves internals children
    else Ok ()
  in
  match check t.root ~is_root:true ~depth:0 with
  | Ok _ -> check_shape ()
  | Error e -> Error e
