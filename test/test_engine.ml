(* Tests for predicates (3VL), range extraction, tables, the catalog and
   histograms. *)

open Rdb_data
open Rdb_engine

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let schema =
  Schema.make
    [
      Schema.col "A" Value.T_int;
      Schema.col ~nullable:true "B" Value.T_int;
      Schema.col "S" Value.T_str;
    ]

let row a b s : Row.t =
  [| Value.int a; (match b with Some v -> Value.int v | None -> Value.Null); Value.str s |]

(* --- predicate evaluation ---------------------------------------------- *)

let test_cmp_basics () =
  let open Predicate in
  let r = row 5 (Some 3) "hello" in
  check "eq" true (eval ("A" =% Value.int 5) schema r);
  check "lt" true (eval ("A" <% Value.int 6) schema r);
  check "ge false" false (eval ("A" >=% Value.int 6) schema r);
  check "str" true (eval ("S" =% Value.str "hello") schema r)

let test_null_three_valued () =
  let open Predicate in
  let r = row 5 None "x" in
  (* Comparisons with NULL are Unknown, never satisfied... *)
  check "b = 3 unknown" false (eval ("B" =% Value.int 3) schema r);
  check "b <> 3 unknown too" false (eval (Cmp ("B", Ne, Const (Value.int 3))) schema r);
  (* ...and NOT(unknown) is still not satisfied. *)
  check "not (b = 3) unknown" false (eval (Not ("B" =% Value.int 3)) schema r);
  (* But unknown OR true = true. *)
  check "unknown or true" true (eval (Or [ "B" =% Value.int 3; "A" =% Value.int 5 ]) schema r);
  check "unknown and false" false
    (eval (And [ "B" =% Value.int 3; "A" =% Value.int 99 ]) schema r);
  check "is null" true (eval (Is_null "B") schema r);
  check "is not null" false (eval (Is_not_null "B") schema r);
  (* eval_maybe: unknown is not a definite rejection. *)
  check "maybe unknown" true (eval_maybe ("B" =% Value.int 3) schema r);
  check "maybe definite false" false (eval_maybe ("A" =% Value.int 99) schema r)

let test_between_in_like () =
  let open Predicate in
  let r = row 15 (Some 7) "database" in
  check "between" true (eval (between "A" (Value.int 10) (Value.int 20)) schema r);
  check "between excl" false (eval (between "A" (Value.int 16) (Value.int 20)) schema r);
  check "in list" true
    (eval (In_list ("B", [ Const (Value.int 1); Const (Value.int 7) ])) schema r);
  check "like prefix" true (eval (Like ("S", "data%")) schema r);
  check "like infix" true (eval (Like ("S", "%tab%")) schema r);
  check "like underscore" true (eval (Like ("S", "_atabase")) schema r);
  check "like no match" false (eval (Like ("S", "db%")) schema r);
  check "like exact" true (eval (Like ("S", "database")) schema r);
  check "like percent only" true (eval (Like ("S", "%")) schema r)

let test_bind_params () =
  let open Predicate in
  let p = param_cmp "A" Ge "X" in
  check "unbound" false (is_bound p);
  Alcotest.(check (list string)) "params" [ "X" ] (params p);
  let b = bind p [ ("X", Value.int 10) ] in
  check "bound" true (is_bound b);
  check "eval bound" true (eval b schema (row 15 None ""));
  check "missing param raises" true
    (try
       ignore (bind p []);
       false
     with Unbound_param "X" -> true)

let test_simplify () =
  let open Predicate in
  check "and true" true (simplify (And [ True; "A" =% Value.int 1 ]) = ("A" =% Value.int 1));
  check "and false" true (simplify (And [ "A" =% Value.int 1; False ]) = False);
  check "or true" true (simplify (Or [ "A" =% Value.int 1; True ]) = True);
  check "nested flatten" true
    (simplify (And [ And [ "A" =% Value.int 1; "A" =% Value.int 2 ]; "A" =% Value.int 3 ])
    = And [ "A" =% Value.int 1; "A" =% Value.int 2; "A" =% Value.int 3 ]);
  check "double neg" true (simplify (Not (Not ("A" =% Value.int 1))) = ("A" =% Value.int 1));
  check "empty and" true (simplify (And []) = True);
  check "empty or" true (simplify (Or []) = False)

(* qcheck: simplify preserves evaluation *)
let arb_pred =
  let open QCheck.Gen in
  let leaf =
    oneof
      [
        return Predicate.True;
        return Predicate.False;
        map
          (fun (v, op) ->
            let ops = [| Predicate.Eq; Predicate.Ne; Predicate.Lt; Predicate.Ge |] in
            Predicate.Cmp ("A", ops.(op mod 4), Predicate.Const (Value.int v)))
          (pair (int_range 0 20) (int_range 0 3));
        map (fun v -> Predicate.Cmp ("B", Predicate.Le, Predicate.Const (Value.int v)))
          (int_range 0 20);
      ]
  in
  let rec tree depth =
    if depth = 0 then leaf
    else
      frequency
        [
          (2, leaf);
          (1, map (fun l -> Predicate.And l) (list_size (int_range 1 3) (tree (depth - 1))));
          (1, map (fun l -> Predicate.Or l) (list_size (int_range 1 3) (tree (depth - 1))));
          (1, map (fun p -> Predicate.Not p) (tree (depth - 1)));
        ]
  in
  QCheck.make ~print:Predicate.to_string (tree 3)

let prop_simplify_preserves_eval =
  QCheck.Test.make ~name:"simplify preserves 3VL evaluation" ~count:300
    (QCheck.pair arb_pred (QCheck.pair (QCheck.int_range 0 20) (QCheck.option (QCheck.int_range 0 20))))
    (fun (p, (a, b)) ->
      let r = row a b "s" in
      Predicate.eval p schema r = Predicate.eval (Predicate.simplify p) schema r
      && Predicate.eval_maybe p schema r
         = Predicate.eval_maybe (Predicate.simplify p) schema r)

(* qcheck: a compiled restriction equals the reference interpreter on
   all three layouts.  Any column may hold any kind of value (an Int in
   a Float column, nan, strings), constants and BETWEEN bounds may be
   NULL, and every constructor appears. *)
let wide_schema =
  Schema.make
    (List.map (fun c -> Schema.col ~nullable:true c Value.T_float) [ "C0"; "C1"; "C2"; "C3" ])

let wide_columns = [| "C0"; "C1"; "C2"; "C3" |]

let gen_value =
  QCheck.Gen.(
    oneof
      [
        return Value.Null;
        map Value.int (int_range (-2) 2);
        map (fun i -> Value.float (float_of_int i)) (int_range (-2) 2);
        map Value.float (float_range (-2.0) 2.0);
        return (Value.float Float.nan);
        map Value.str (string_size ~gen:(oneofl [ 'a'; 'b'; '1' ]) (int_range 0 3));
      ])

let gen_restriction =
  let open QCheck.Gen in
  let col = map (fun i -> wide_columns.(i)) (int_range 0 3) in
  let op = oneofl Predicate.[ Eq; Ne; Lt; Le; Gt; Ge ] in
  let const = map (fun v -> Predicate.Const v) gen_value in
  let leaf =
    oneof
      [
        oneofl [ Predicate.True; Predicate.False ];
        map3 (fun c o v -> Predicate.Cmp (c, o, v)) col op const;
        map3 (fun a o b -> Predicate.Cmp_col (a, o, b)) col op col;
        map3 (fun c lo hi -> Predicate.Between (c, lo, hi)) col const const;
        map2 (fun c vs -> Predicate.In_list (c, vs)) col (list_size (int_range 0 3) const);
        map (fun c -> Predicate.Is_null c) col;
        map (fun c -> Predicate.Is_not_null c) col;
        map2
          (fun c p -> Predicate.Like (c, p))
          col
          (string_size ~gen:(oneofl [ 'a'; 'b'; '1'; '%'; '_'; '.' ]) (int_range 0 4));
      ]
  in
  let rec tree depth =
    if depth = 0 then leaf
    else
      frequency
        [
          (3, leaf);
          (1, map (fun l -> Predicate.And l) (list_size (int_range 0 3) (tree (depth - 1))));
          (1, map (fun l -> Predicate.Or l) (list_size (int_range 0 3) (tree (depth - 1))));
          (1, map (fun p -> Predicate.Not p) (tree (depth - 1)));
        ]
  in
  tree 3

(* A key over a random non-empty column subset, in random order. *)
let gen_key_ids =
  QCheck.Gen.(
    map2
      (fun keep order ->
        let ids = List.filteri (fun i _ -> List.nth keep i) [ 0; 1; 2; 3 ] in
        let ids = if ids = [] then [ order mod 4 ] else ids in
        let ids = Array.of_list ids in
        let n = Array.length ids in
        Array.init n (fun i -> ids.((i + order) mod n)))
      (list_repeat 4 bool) (int_range 0 3))

(* [Scan.synthetic_row] reads only the table's schema and the index's
   key positions; the tree is never touched. *)
let key_fixture =
  lazy
    (let pool = Rdb_storage.Buffer_pool.create ~capacity:16 () in
     (Table.create pool ~name:"K" wide_schema, Rdb_btree.Btree.create pool))

let prop_compiled_matches_interpreter =
  QCheck.Test.make ~name:"compiled restriction equals the interpreter on every layout"
    ~count:1000
    (QCheck.make
       ~print:(fun (p, row, ids) ->
         Printf.sprintf "%s on %s, key [%s]" (Predicate.to_string p) (Row.to_string row)
           (String.concat ";" (Array.to_list (Array.map string_of_int ids))))
       QCheck.Gen.(
         triple gen_restriction (map Array.of_list (list_repeat 4 gen_value)) gen_key_ids))
    (fun (p, row, key_ids) ->
      let c = Predicate.compile p wide_schema in
      let expect = Predicate.eval p wide_schema row in
      let expect_maybe = Predicate.eval_maybe p wide_schema row in
      let key = Row.project row key_ids in
      let table, tree = Lazy.force key_fixture in
      let idx =
        {
          Table.idx_name = "K_IDX";
          key_columns = Array.to_list (Array.map (fun i -> wide_columns.(i)) key_ids);
          key_ids;
          tree;
        }
      in
      let synth = Rdb_exec.Scan.synthetic_row table idx key in
      let ck = Predicate.compile_key p wide_schema ~key_ids in
      Predicate.test c row = expect
      && Predicate.test_maybe c row = expect_maybe
      && Predicate.test_key ck key = Predicate.eval p wide_schema synth
      && Predicate.test_key_maybe ck key = Predicate.eval_maybe p wide_schema synth)

let test_compile_rejects_unknown_column () =
  let open Predicate in
  let rejects p =
    match compile p schema with
    | exception Invalid_argument msg ->
        let n = String.length "NOPE" in
        let rec has i =
          i + n <= String.length msg && (String.sub msg i n = "NOPE" || has (i + 1))
        in
        has 0
    | _ -> false
  in
  check "unknown column named" true (rejects ("NOPE" =% Value.int 1));
  check "inside AND" true (rejects (And [ "A" =% Value.int 1; "NOPE" =% Value.Null ]));
  check "column-to-column" true (rejects (Cmp_col ("A", Eq, "NOPE")));
  check "unbound parameter" true
    (match compile (param_cmp "A" Eq "X") schema with
    | exception Unbound_param "X" -> true
    | _ -> false)

(* --- range extraction ----------------------------------------------------- *)

let mk_table () =
  let pool = Rdb_storage.Buffer_pool.create ~capacity:1024 () in
  let t = Table.create pool ~name:"T" schema in
  let rng = Rdb_util.Prng.create ~seed:5 in
  for i = 0 to 499 do
    let b = if i mod 7 = 0 then None else Some (Rdb_util.Prng.int rng 50) in
    ignore (Table.insert t (row (Rdb_util.Prng.int rng 100) b (Printf.sprintf "s%03d" i)))
  done;
  ignore (Table.create_index t ~name:"A_IDX" ~columns:[ "A" ] ());
  ignore (Table.create_index t ~name:"AB_IDX" ~columns:[ "A"; "B" ] ());
  t

let test_extract_simple_range () =
  let t = mk_table () in
  let idx = Option.get (Table.find_index t "A_IDX") in
  let open Predicate in
  let e = Range_extract.for_index (And [ "A" >=% Value.int 10; "A" <% Value.int 20 ]) idx in
  check "bounded" true e.Range_extract.bounded;
  check "residual empty" true (e.Range_extract.residual = True);
  match e.Range_extract.ranges with
  | [ r ] ->
      check "range lo" true (r.Rdb_btree.Btree.lo = Rdb_btree.Btree.Incl [| Value.int 10 |]);
      check "range hi" true (r.Rdb_btree.Btree.hi = Rdb_btree.Btree.Excl [| Value.int 20 |])
  | _ -> Alcotest.fail "expected a single range" 

let test_extract_eq_prefix_plus_range () =
  let t = mk_table () in
  let idx = Option.get (Table.find_index t "AB_IDX") in
  let open Predicate in
  let e =
    Range_extract.for_index (And [ "A" =% Value.int 5; "B" >% Value.int 10 ]) idx
  in
  check "eq prefix 1" true (e.Range_extract.eq_prefix = 1);
  check "residual empty" true (e.Range_extract.residual = True);
  match e.Range_extract.ranges with
  | [ r ] ->
      check "lo key" true
        (r.Rdb_btree.Btree.lo = Rdb_btree.Btree.Excl [| Value.int 5; Value.int 10 |])
  | _ -> Alcotest.fail "expected a single range" 

let test_extract_keeps_residual () =
  let t = mk_table () in
  let idx = Option.get (Table.find_index t "A_IDX") in
  let open Predicate in
  let pred = And [ "A" >=% Value.int 10; "S" =% Value.str "x" ] in
  let e = Range_extract.for_index pred idx in
  check "bounded" true e.Range_extract.bounded;
  check "residual keeps S" true (e.Range_extract.residual = ("S" =% Value.str "x"))

let test_extract_contradiction_gives_empty () =
  let t = mk_table () in
  let idx = Option.get (Table.find_index t "A_IDX") in
  let open Predicate in
  let e = Range_extract.for_index (And [ "A" >% Value.int 20; "A" <% Value.int 10 ]) idx in
  (* The resulting range must select nothing. *)
  let m = Rdb_storage.Cost.create () in
  let total =
    List.fold_left
      (fun acc r -> acc + Rdb_btree.Btree.count_range idx.Table.tree m r)
      0 e.Range_extract.ranges
  in
  check_int "empty" 0 total

let test_extract_null_constant_not_absorbed () =
  let t = mk_table () in
  let idx = Option.get (Table.find_index t "A_IDX") in
  let open Predicate in
  let e = Range_extract.for_index (Cmp ("A", Eq, Const Value.Null)) idx in
  check "not bounded" false e.Range_extract.bounded

let test_extract_or_not_bounded () =
  let t = mk_table () in
  let idx = Option.get (Table.find_index t "A_IDX") in
  let open Predicate in
  let e =
    Range_extract.for_index (Or [ "A" =% Value.int 1; "A" =% Value.int 50 ]) idx
  in
  check "OR not bounded" false e.Range_extract.bounded

(* The soundness property: the extracted range never loses a
   qualifying row, and range + residual together equal the original
   predicate on every row. *)
let prop_extraction_sound =
  QCheck.Test.make ~name:"range extraction is sound and aligned" ~count:100 arb_pred
    (fun pred ->
      let t = mk_table () in
      let idx = Option.get (Table.find_index t "AB_IDX") in
      let e = Range_extract.for_index pred idx in
      let m = Rdb_storage.Cost.create () in
      let ok = ref true in
      Rdb_storage.Heap_file.iter (Table.heap t) m (fun _ row ->
          let qualifies = Predicate.eval pred schema row in
          let key = Table.index_key idx row in
          let in_range =
            List.exists (fun r -> Rdb_btree.Btree.in_range r key) e.Range_extract.ranges
          in
          let residual_ok = Predicate.eval e.Range_extract.residual schema row in
          (* soundness: qualifying row is in range and passes residual *)
          if qualifies && not (in_range && residual_ok) then ok := false;
          (* alignment: in-range + residual implies qualifies *)
          if in_range && residual_ok && not qualifies then ok := false);
      !ok)

let test_extract_in_list_multi_range () =
  let t = mk_table () in
  let idx = Option.get (Table.find_index t "A_IDX") in
  let open Predicate in
  let e =
    Range_extract.for_index
      (In_list ("A", [ Const (Value.int 7); Const (Value.int 3); Const (Value.int 7) ]))
      idx
  in
  check "bounded" true e.Range_extract.bounded;
  check_int "two ranges (deduped, sorted)" 2 (List.length e.Range_extract.ranges);
  check "residual empty" true (e.Range_extract.residual = True);
  (* contents equal the two point groups *)
  let m = Rdb_storage.Cost.create () in
  let count =
    List.fold_left
      (fun acc r -> acc + Rdb_btree.Btree.count_range idx.Table.tree m r)
      0 e.Range_extract.ranges
  in
  let oracle = ref 0 in
  Rdb_storage.Heap_file.iter (Table.heap t) m (fun _ row ->
      match Row.get row 0 with
      | Value.Int (3 | 7) -> incr oracle
      | _ -> ());
  check_int "covers exactly the IN rows" !oracle count

let test_extract_in_list_with_param_not_absorbed () =
  let t = mk_table () in
  let idx = Option.get (Table.find_index t "A_IDX") in
  let open Predicate in
  let e =
    Range_extract.for_index
      (In_list ("A", [ Const (Value.int 1); Const Value.Null ]))
      idx
  in
  (* NULL member: not absorbable. *)
  check "not bounded" false e.Range_extract.bounded

(* --- tables ----------------------------------------------------------------- *)

let test_table_index_maintenance () =
  let t = mk_table () in
  let idx = Option.get (Table.find_index t "A_IDX") in
  check_int "index covers all rows" (Table.row_count t)
    (Rdb_btree.Btree.cardinality idx.Table.tree);
  let rid = Table.insert t (row 42 (Some 1) "new") in
  check_int "insert maintained" (Table.row_count t)
    (Rdb_btree.Btree.cardinality idx.Table.tree);
  check "delete" true (Table.delete t rid);
  check_int "delete maintained" (Table.row_count t)
    (Rdb_btree.Btree.cardinality idx.Table.tree)

let test_table_validation () =
  let t = mk_table () in
  check "bad arity rejected" true
    (try
       ignore (Table.insert t [| Value.int 1 |]);
       false
     with Invalid_argument _ -> true)

let test_index_classification () =
  let t = mk_table () in
  let ab = Option.get (Table.find_index t "AB_IDX") in
  check "covers A,B" true (Table.index_covers ab ~columns:[ "A"; "B" ]);
  check "does not cover S" false (Table.index_covers ab ~columns:[ "A"; "S" ]);
  check "provides order A" true (Table.index_provides_order ab ~order:[ "A" ]);
  check "provides order A,B" true (Table.index_provides_order ab ~order:[ "A"; "B" ]);
  check "no order B" false (Table.index_provides_order ab ~order:[ "B" ])

let test_duplicate_index_rejected () =
  let t = mk_table () in
  check "dup name" true
    (try
       ignore (Table.create_index t ~name:"A_IDX" ~columns:[ "A" ] ());
       false
     with Invalid_argument _ -> true);
  check "unknown column" true
    (try
       ignore (Table.create_index t ~name:"Z_IDX" ~columns:[ "Z" ] ());
       false
     with Invalid_argument _ -> true)

let test_table_update_maintains_indexes () =
  let t = mk_table () in
  let idx = Option.get (Table.find_index t "A_IDX") in
  let rid = Table.insert t (row 42 (Some 1) "upd") in
  let m = Rdb_storage.Cost.create () in
  check "update" true (Table.update t rid (row 77 (Some 1) "upd'"));
  check "old key gone" false
    (Rdb_btree.Btree.mem idx.Table.tree m [| Value.int 42 |] rid);
  check "new key present" true
    (Rdb_btree.Btree.mem idx.Table.tree m [| Value.int 77 |] rid);
  check "row updated" true
    (Row.equal (Option.get (Rdb_storage.Heap_file.fetch (Table.heap t) m rid))
       (row 77 (Some 1) "upd'"));
  check "update dead rid" false
    (let dead = Rid.make ~page:9999 ~slot:0 in
     Table.update t dead (row 1 None "x"))

let test_clustering_factor_discriminates () =
  let pool = Rdb_storage.Buffer_pool.create ~capacity:4096 () in
  let schema2 = Schema.make [ Schema.col "K" Value.T_int; Schema.col "R" Value.T_int ] in
  let t = Table.create ~page_bytes:512 pool ~name:"CL" schema2 in
  let rng = Rdb_util.Prng.create ~seed:13 in
  for i = 0 to 4999 do
    (* K follows insertion order (clustered); R is random. *)
    ignore (Table.insert t [| Value.int i; Value.int (Rdb_util.Prng.int rng 1_000_000) |])
  done;
  let ki = Table.create_index t ~name:"K_IDX" ~columns:[ "K" ] () in
  let ri = Table.create_index t ~name:"R_IDX" ~columns:[ "R" ] () in
  let ck = Table.clustering_factor t ki in
  let cr = Table.clustering_factor t ri in
  check (Printf.sprintf "clustered ~1 (%.2f)" ck) true (ck > 0.9);
  check (Printf.sprintf "random low (%.2f)" cr) true (cr < 0.5);
  (* cache: second call returns the same *)
  check "cached" true (Table.clustering_factor t ki = ck)

let test_database_catalog () =
  let db = Database.create () in
  let t = Database.create_table db ~name:"X" schema in
  check "find" true (match Database.find_table db "X" with Some t2 -> t2 == t | None -> false);
  check "dup rejected" true
    (try
       ignore (Database.create_table db ~name:"X" schema);
       false
     with Invalid_argument _ -> true);
  check "drop" true (Database.drop_table db "X");
  check "gone" true (Database.find_table db "X" = None)

let test_like_edge_patterns () =
  let open Predicate in
  let r = row 1 None "" in
  check "empty string matches %" true (eval (Like ("S", "%")) schema r);
  check "empty vs empty" true (eval (Like ("S", "")) schema r);
  check "empty vs underscore" false (eval (Like ("S", "_")) schema r);
  let r2 = row 1 None "abc" in
  check "double percent" true (eval (Like ("S", "%%")) schema r2);
  check "literal tail" true (eval (Like ("S", "%c")) schema r2);
  check "literal head" false (eval (Like ("S", "b%")) schema r2)

let test_empty_in_list () =
  let open Predicate in
  let r = row 1 (Some 2) "x" in
  check "IN () is false" false (eval (In_list ("A", [])) schema r);
  check "NOT IN () is true" true (eval (Not (In_list ("A", []))) schema r)

let test_cmp_col_same_table () =
  let open Predicate in
  (* A vs B on the same row, with NULL handling. *)
  check "equal cols" true (eval (Cmp_col ("A", Eq, "A")) schema (row 3 None "x"));
  check "a < b" true (eval (Cmp_col ("A", Lt, "B")) schema (row 3 (Some 9) "x"));
  check "null is unknown" false (eval (Cmp_col ("A", Eq, "B")) schema (row 3 None "x"));
  check "maybe on null" true (eval_maybe (Cmp_col ("A", Eq, "B")) schema (row 3 None "x"))

let test_bind_is_idempotent_when_bound () =
  let open Predicate in
  let p = bind (param_cmp "A" Ge "X") [ ("X", Value.int 1) ] in
  check "double bind ok" true (bind p [] = p)

(* --- histogram (the §5 strawman) --------------------------------------------- *)

let test_histogram_estimates () =
  let pool = Rdb_storage.Buffer_pool.create ~capacity:1024 () in
  let schema2 = Schema.make [ Schema.col "V" Value.T_int ] in
  let t = Table.create ~page_bytes:512 pool ~name:"H" schema2 in
  for i = 0 to 9999 do
    ignore (Table.insert t [| Value.int (i mod 1000) |])
  done;
  let m = Rdb_storage.Cost.create () in
  let h = Histogram.build ~buckets:50 t ~column:"V" m in
  check "build charged full scans" true (Histogram.build_cost h > 0.0);
  check_int "rows at build" 10000 (Histogram.built_at_rows h);
  (* Uniform data: [100, 299] holds ~2000 rows. *)
  let est = Histogram.estimate_range h ~lo:(Some 100.0) ~hi:(Some 299.0) in
  check (Printf.sprintf "range estimate ~2000 (%.0f)" est) true
    (est > 1500.0 && est < 2500.0);
  check "empty above max" true (Histogram.estimate_range h ~lo:(Some 5000.0) ~hi:None < 1.0);
  check "inverted range" true (Histogram.estimate_range h ~lo:(Some 10.0) ~hi:(Some 5.0) = 0.0);
  (* full range covers everything *)
  let full = Histogram.estimate_range h ~lo:None ~hi:None in
  check "full range total" true (Float.abs (full -. 10000.0) < 1.0)

let test_histogram_predicate_coverage () =
  let pool = Rdb_storage.Buffer_pool.create ~capacity:1024 () in
  let schema2 = Schema.make [ Schema.col "V" Value.T_int ] in
  let t = Table.create pool ~name:"H2" schema2 in
  for i = 0 to 999 do
    ignore (Table.insert t [| Value.int i |])
  done;
  let m = Rdb_storage.Cost.create () in
  let h = Histogram.build t ~column:"V" m in
  let open Predicate in
  check "range-producing ok" true (Histogram.estimate_predicate h ("V" <% Value.int 100) <> None);
  check "between ok" true
    (Histogram.estimate_predicate h (between "V" (Value.int 1) (Value.int 2)) <> None);
  check "LIKE not covered" true (Histogram.estimate_predicate h (Like ("V", "1%")) = None);
  check "IS NULL not covered" true (Histogram.estimate_predicate h (Is_null "V") = None);
  check "other column ignored" true
    (Histogram.estimate_predicate h ("W" <% Value.int 1) = None)

let test_histogram_staleness () =
  let pool = Rdb_storage.Buffer_pool.create ~capacity:1024 () in
  let schema2 = Schema.make [ Schema.col "V" Value.T_int ] in
  let t = Table.create pool ~name:"H3" schema2 in
  for _ = 1 to 500 do
    ignore (Table.insert t [| Value.int 10 |])
  done;
  let m = Rdb_storage.Cost.create () in
  let h = Histogram.build t ~column:"V" m in
  for _ = 1 to 500 do
    ignore (Table.insert t [| Value.int 10 |])
  done;
  (* The histogram still answers from its snapshot. *)
  let est = Histogram.estimate_range h ~lo:None ~hi:None in
  check "snapshot answer" true (est < 600.0);
  check "witness records build size" true (Histogram.built_at_rows h = 500)

let () =
  Alcotest.run "rdb_engine"
    [
      ( "predicate",
        [
          Alcotest.test_case "comparisons" `Quick test_cmp_basics;
          Alcotest.test_case "NULL 3VL" `Quick test_null_three_valued;
          Alcotest.test_case "between/in/like" `Quick test_between_in_like;
          Alcotest.test_case "bind params" `Quick test_bind_params;
          Alcotest.test_case "simplify" `Quick test_simplify;
          QCheck_alcotest.to_alcotest prop_simplify_preserves_eval;
          QCheck_alcotest.to_alcotest prop_compiled_matches_interpreter;
          Alcotest.test_case "compile rejects unknown column" `Quick
            test_compile_rejects_unknown_column;
        ] );
      ( "predicate-edges",
        [
          Alcotest.test_case "LIKE edge patterns" `Quick test_like_edge_patterns;
          Alcotest.test_case "empty IN list" `Quick test_empty_in_list;
          Alcotest.test_case "column-column compare" `Quick test_cmp_col_same_table;
          Alcotest.test_case "bind idempotent" `Quick test_bind_is_idempotent_when_bound;
        ] );
      ( "range_extract",
        [
          Alcotest.test_case "simple range" `Quick test_extract_simple_range;
          Alcotest.test_case "eq prefix + range" `Quick test_extract_eq_prefix_plus_range;
          Alcotest.test_case "residual kept" `Quick test_extract_keeps_residual;
          Alcotest.test_case "contradiction empty" `Quick test_extract_contradiction_gives_empty;
          Alcotest.test_case "NULL not absorbed" `Quick test_extract_null_constant_not_absorbed;
          Alcotest.test_case "OR not bounded" `Quick test_extract_or_not_bounded;
          Alcotest.test_case "IN-list multi-range" `Quick test_extract_in_list_multi_range;
          Alcotest.test_case "IN with NULL not absorbed" `Quick
            test_extract_in_list_with_param_not_absorbed;
          QCheck_alcotest.to_alcotest prop_extraction_sound;
        ] );
      ( "table",
        [
          Alcotest.test_case "index maintenance" `Quick test_table_index_maintenance;
          Alcotest.test_case "validation" `Quick test_table_validation;
          Alcotest.test_case "classification" `Quick test_index_classification;
          Alcotest.test_case "bad index rejected" `Quick test_duplicate_index_rejected;
          Alcotest.test_case "update maintains indexes" `Quick
            test_table_update_maintains_indexes;
          Alcotest.test_case "clustering factor" `Quick test_clustering_factor_discriminates;
          Alcotest.test_case "catalog" `Quick test_database_catalog;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "estimates" `Quick test_histogram_estimates;
          Alcotest.test_case "predicate coverage" `Quick test_histogram_predicate_coverage;
          Alcotest.test_case "staleness" `Quick test_histogram_staleness;
        ] );
    ]
