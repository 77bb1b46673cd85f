(* Tests for the SQL layer: lexer, parser, executor semantics, and the
   §4 goal-inference example end-to-end. *)

open Rdb_data
module Lexer = Rdb_sql.Lexer
module Parser = Rdb_sql.Parser
module Ast = Rdb_sql.Ast
module Executor = Rdb_sql.Executor
module Goal = Rdb_core.Goal
module R = Rdb_core.Retrieval

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- lexer ------------------------------------------------------------------- *)

let test_lexer_tokens () =
  let toks = Lexer.tokenize "SELECT a, b2 FROM t WHERE x >= :P1 AND s = 'it''s' -- c" in
  let expected =
    [
      Lexer.Ident "SELECT"; Lexer.Ident "A"; Lexer.Symbol ","; Lexer.Ident "B2";
      Lexer.Ident "FROM"; Lexer.Ident "T"; Lexer.Ident "WHERE"; Lexer.Ident "X";
      Lexer.Symbol ">="; Lexer.Host_var "P1"; Lexer.Ident "AND"; Lexer.Ident "S";
      Lexer.Symbol "="; Lexer.String_lit "it's"; Lexer.Eof;
    ]
  in
  check "token stream" true (toks = expected)

let test_lexer_numbers () =
  check "int" true (Lexer.tokenize "42" = [ Lexer.Int_lit 42; Lexer.Eof ]);
  check "float" true (Lexer.tokenize "3.5" = [ Lexer.Float_lit 3.5; Lexer.Eof ]);
  check "int dot ident stays split" true
    (match Lexer.tokenize "1.x" with
    | [ Lexer.Int_lit 1; Lexer.Symbol "."; Lexer.Ident "X"; Lexer.Eof ] -> true
    | _ -> false)

let test_lexer_errors () =
  check "unterminated string" true
    (try
       ignore (Lexer.tokenize "'abc");
       false
     with Lexer.Lex_error _ -> true);
  check "bad char" true
    (try
       ignore (Lexer.tokenize "a ` b");
       false
     with Lexer.Lex_error _ -> true)

(* --- parser ------------------------------------------------------------------- *)

let test_parse_select_shape () =
  let s =
    Parser.parse_select
      "SELECT DISTINCT a, b FROM t WHERE (x > 1 OR y BETWEEN 2 AND 3) AND s LIKE 'a%' \
       ORDER BY a, b LIMIT TO 7 ROWS OPTIMIZE FOR FAST FIRST"
  in
  check "distinct" true s.Ast.distinct;
  check "projection" true (s.Ast.projection = Ast.Cols [ "A"; "B" ]);
  check "order" true (s.Ast.order_by = [ "A"; "B" ]);
  check "limit" true (s.Ast.limit = Some 7);
  check "optimize" true (s.Ast.optimize = Some Goal.Fast_first);
  match s.Ast.where with
  | Some (Ast.C_and [ Ast.C_or _; Ast.C_like ("S", "a%") ]) -> ()
  | _ -> Alcotest.fail "unexpected where shape"

let test_parse_precedence () =
  let s = Parser.parse_select "SELECT a FROM t WHERE x = 1 OR y = 2 AND z = 3" in
  (* AND binds tighter than OR. *)
  match s.Ast.where with
  | Some (Ast.C_or [ Ast.C_cmp ("X", Ast.Eq, _); Ast.C_and [ _; _ ] ]) -> ()
  | _ -> Alcotest.fail "precedence broken"

let test_parse_not_in_is_null () =
  let s =
    Parser.parse_select
      "SELECT a FROM t WHERE x NOT IN (1, 2) AND y IS NOT NULL AND NOT z = 3"
  in
  match s.Ast.where with
  | Some
      (Ast.C_and
        [ Ast.C_not (Ast.C_in_list ("X", [ _; _ ])); Ast.C_is_not_null "Y";
          Ast.C_not (Ast.C_cmp ("Z", Ast.Eq, _)) ]) ->
      ()
  | _ -> Alcotest.fail "unexpected shape"

let test_parse_subqueries () =
  let s =
    Parser.parse_select
      "SELECT a FROM t WHERE x IN (SELECT y FROM u WHERE k = 1) AND EXISTS (SELECT z \
       FROM v)"
  in
  match s.Ast.where with
  | Some (Ast.C_and [ Ast.C_in_select ("X", sub1); Ast.C_exists sub2 ]) ->
      check "sub1 table" true (sub1.Ast.table = "U");
      check "sub2 table" true (sub2.Ast.table = "V")
  | _ -> Alcotest.fail "unexpected shape"

let test_parse_aggregates () =
  let s = Parser.parse_select "SELECT COUNT(*), AVG(x), MAX(y) FROM t" in
  match s.Ast.projection with
  | Ast.Aggs [ (Ast.Count_star, _); (Ast.Avg "X", _); (Ast.Max "Y", _) ] -> ()
  | _ -> Alcotest.fail "unexpected aggregates"

let test_parse_statements () =
  (match Parser.parse_statement "CREATE TABLE t (a INT, b STRING NULL, c FLOAT)" with
  | Ast.Create_table ("T", defs) ->
      check_int "3 cols" 3 (List.length defs);
      check "b nullable" true (List.nth defs 1).Ast.col_nullable
  | _ -> Alcotest.fail "create table");
  (match Parser.parse_statement "CREATE INDEX i ON t (a, b)" with
  | Ast.Create_index { index = "I"; on_table = "T"; columns = [ "A"; "B" ] } -> ()
  | _ -> Alcotest.fail "create index");
  (match Parser.parse_statement "INSERT INTO t VALUES (1, 'x'), (2, NULL)" with
  | Ast.Insert { into = "T"; rows = [ [ _; _ ]; [ _; _ ] ] } -> ()
  | _ -> Alcotest.fail "insert");
  match Parser.parse_statement "EXPLAIN SELECT a FROM t" with
  | Ast.Explain _ -> ()
  | _ -> Alcotest.fail "explain"

let test_parse_errors () =
  List.iter
    (fun src ->
      check src true
        (try
           ignore (Parser.parse_statement src);
           false
         with Parser.Parse_error _ -> true))
    [
      "SELECT";
      "SELECT FROM t";
      "SELECT a FROM t WHERE";
      "SELECT a FROM t LIMIT x";
      "SELECT a FROM t WHERE x LIKE 42";
      "SELECT a FROM t trailing";
      "INSERT INTO t VALUES 1";
      "SELECT a FROM t WHERE x BETWEEN 1";
    ]

let test_parse_negative_and_exponent_literals () =
  let s = Parser.parse_select "SELECT a FROM t WHERE x = -5 AND y > 1.5e3 AND z < -2.5" in
  match s.Ast.where with
  | Some
      (Ast.C_and
        [ Ast.C_cmp (_, _, Ast.Lit (Value.Int -5));
          Ast.C_cmp (_, _, Ast.Lit (Value.Float 1500.0));
          Ast.C_cmp (_, _, Ast.Lit (Value.Float -2.5)) ]) ->
      ()
  | _ -> Alcotest.fail "negative/exponent literals misparsed"

(* --- printer round-trip --------------------------------------------------------- *)

let arb_select =
  let open QCheck.Gen in
  let col = oneofl [ "A"; "B"; "C" ] in
  let operand =
    oneof
      [ map (fun i -> Ast.Lit (Value.int i)) (int_range (-50) 50);
        map (fun s -> Ast.Lit (Value.str s)) (oneofl [ ""; "x"; "it's"; "a b" ]);
        return (Ast.Lit Value.Null);
        map (fun h -> Ast.Host h) (oneofl [ "P1"; "LO" ]) ]
  in
  let leaf =
    oneof
      [ return Ast.C_true;
        return Ast.C_false;
        map3 (fun c op o -> Ast.C_cmp (c, op, o)) col
          (oneofl [ Ast.Eq; Ast.Ne; Ast.Lt; Ast.Le; Ast.Gt; Ast.Ge ])
          operand;
        map3 (fun c a b -> Ast.C_between (c, a, b)) col operand operand;
        map2 (fun c os -> Ast.C_in_list (c, os)) col (list_size (int_range 1 3) operand);
        map (fun c -> Ast.C_is_null c) col;
        map (fun c -> Ast.C_is_not_null c) col;
        map2 (fun c p -> Ast.C_like (c, p)) col (oneofl [ "a%"; "%x%"; "_b" ]) ]
  in
  let rec cond depth =
    if depth = 0 then leaf
    else
      frequency
        [ (3, leaf);
          (1, map (fun l -> Ast.C_and l) (list_size (int_range 2 3) (cond (depth - 1))));
          (1, map (fun l -> Ast.C_or l) (list_size (int_range 2 3) (cond (depth - 1))));
          (1, map (fun c -> Ast.C_not c) (cond (depth - 1))) ]
  in
  let projection =
    oneof
      [ return Ast.Star;
        map (fun cs -> Ast.Cols cs) (list_size (int_range 1 3) col);
        return (Ast.Aggs [ (Ast.Count_star, Ast.agg_name Ast.Count_star) ]);
        map (fun c -> Ast.Aggs [ (Ast.Sum c, Ast.agg_name (Ast.Sum c)) ]) col ]
  in
  let select =
    map2
      (fun (distinct, projection, where) (order_by, limit, optimize) ->
        { Ast.distinct; projection; table = "T"; joined = None; where; order_by; limit;
          optimize })
      (triple bool projection (option (cond 2)))
      (triple
         (list_size (int_range 0 2) col)
         (option (int_range 0 20))
         (oneofl [ None; Some Goal.Fast_first; Some Goal.Total_time ]))
  in
  QCheck.make ~print:Ast.select_to_string select

let prop_print_parse_roundtrip =
  QCheck.Test.make ~name:"parse (print select) = select" ~count:300 arb_select
    (fun sel -> Parser.parse_select (Ast.select_to_string sel) = sel)

(* Fuzz the lexer+parser with arbitrary byte strings: every input must
   either parse or raise one of the two structured front-end errors —
   never an assert, Match_failure, or stack overflow (the shell relies
   on this to stay alive on garbage input). *)
let prop_parser_total_on_garbage =
  let arb_bytes =
    let open QCheck.Gen in
    let any_byte = map Char.chr (int_range 0 255) in
    let sqlish =
      oneofl
        [
          "SELECT"; "FROM"; "WHERE"; "AND"; "OR"; "NOT"; "IN"; "("; ")"; ",";
          ";"; "'"; "''"; "*"; "="; "<"; ">"; ":"; "."; "--"; "1e"; "-"; "NULL";
          "BETWEEN"; "LIKE"; "IS"; "T"; "0"; "9999999999999999999999";
        ]
    in
    let fragment = oneof [ map (String.make 1) any_byte; sqlish ] in
    QCheck.make ~print:String.escaped
      (map (String.concat " ") (list_size (int_range 0 12) fragment))
  in
  QCheck.Test.make ~name:"lexer/parser total on arbitrary bytes" ~count:1000 arb_bytes
    (fun src ->
      match Parser.parse_statement src with
      | _ -> true
      | exception Parser.Parse_error _ -> true
      | exception Lexer.Lex_error _ -> true)

let test_statement_printing () =
  List.iter
    (fun src ->
      let stmt = Parser.parse_statement src in
      let printed = Ast.statement_to_string stmt in
      check (Printf.sprintf "%s reparses" src) true
        (Parser.parse_statement printed = stmt))
    [
      "SELECT DISTINCT a FROM t WHERE x IN (SELECT y FROM u) ORDER BY a LIMIT 3";
      "CREATE TABLE t (a INT, b STRING NULL)";
      "CREATE INDEX i ON t (a, b)";
      "INSERT INTO t VALUES (1, 'it''s'), (-2, NULL)";
      "DELETE FROM t WHERE a = 1 OR b = 2";
      "UPDATE t SET a = 5, b = :P WHERE c IS NOT NULL";
      "EXPLAIN SELECT COUNT(*) FROM t WHERE EXISTS (SELECT a FROM u)";
    ]

(* --- executor ------------------------------------------------------------------ *)

let mkdb () =
  let db = Rdb_engine.Database.create ~pool_capacity:512 () in
  ignore (Executor.execute_sql db "CREATE TABLE T (A INT, B INT NULL, S STRING)");
  let rows =
    List.init 500 (fun i ->
        Printf.sprintf "(%d, %s, 's%03d')" (i mod 50)
          (if i mod 10 = 0 then "NULL" else string_of_int (i mod 7))
          i)
  in
  ignore
    (Executor.execute_sql db
       (Printf.sprintf "INSERT INTO T VALUES %s" (String.concat ", " rows)));
  ignore (Executor.execute_sql db "CREATE INDEX A_IDX ON T (A)");
  db

let rows_of db ?env sql = (Executor.execute_sql ?env db sql).Executor.rows

let test_exec_select_where () =
  let db = mkdb () in
  let rows = rows_of db "SELECT S FROM T WHERE A = 3 AND B = 4" in
  check "some rows" true (rows <> []);
  List.iter
    (fun r -> check "single col" true (List.length r = 1))
    rows;
  (* And the count matches first principles: i mod 50 = 3 && i mod 7 = 4
     && i mod 10 <> 0 over 0..499. *)
  let expected =
    List.length
      (List.filter
         (fun i -> i mod 50 = 3 && i mod 7 = 4 && i mod 10 <> 0)
         (List.init 500 Fun.id))
  in
  check_int "row count" expected (List.length rows)

let test_exec_null_semantics () =
  let db = mkdb () in
  let with_b = rows_of db "SELECT COUNT(*) FROM T WHERE B = 0" in
  let b_null = rows_of db "SELECT COUNT(*) FROM T WHERE B IS NULL" in
  let b_not_null = rows_of db "SELECT COUNT(*) FROM T WHERE B IS NOT NULL" in
  let total = rows_of db "SELECT COUNT(*) FROM T" in
  let as_int = function [ [ Value.Int n ] ] -> n | _ -> -1 in
  check_int "nulls" 50 (as_int b_null);
  check_int "null + not null = total" (as_int total) (as_int b_null + as_int b_not_null);
  (* B = 0 must not count NULLs. *)
  check "b=0 excludes nulls" true (as_int with_b + as_int b_null < as_int total)

let test_exec_order_limit_distinct () =
  let db = mkdb () in
  let rows = rows_of db "SELECT DISTINCT A FROM T WHERE A < 10 ORDER BY A" in
  check "distinct sorted" true
    (rows = List.init 10 (fun i -> [ Value.Int i ]));
  let limited = rows_of db "SELECT DISTINCT A FROM T WHERE A < 10 ORDER BY A LIMIT 3" in
  check_int "limit applies after distinct" 3 (List.length limited);
  (* ORDER BY follows the index the scan runs on: IB (B, A) heads the
     covering indexes, but the cheaper IA (A, B) is the one scanned. *)
  let db = Rdb_engine.Database.create ~pool_capacity:512 () in
  let rng = Rdb_util.Prng.create ~seed:1 in
  let pad = String.make 200 'p' in
  let rows =
    List.init 1000 (fun b ->
        Printf.sprintf "(%d, %d, '%s')" (Rdb_util.Prng.int rng 1000) b pad)
  in
  List.iter
    (fun sql -> ignore (Executor.execute_sql db sql))
    [
      "CREATE TABLE T (A INT, B INT, PAD STRING)";
      Printf.sprintf "INSERT INTO T VALUES %s" (String.concat ", " rows);
      "CREATE INDEX IB ON T (B, A)";
      "CREATE INDEX IA ON T (A, B)";
    ];
  let bs =
    List.map
      (function [ _; Value.Int b ] -> b | _ -> -1)
      (rows_of db "SELECT A, B FROM T ORDER BY B")
  in
  check "order by B follows the scanned index" true (bs = List.init 1000 Fun.id)

(* DISTINCT keeps the first of each duplicate in delivered order, so an
   ORDER BY survives it and a LIMIT after it keeps the leading rows —
   on a single table and on a join.  B orders T: (3,1) (1,2) (2,3)
   (1,4) (3,5). *)
let test_exec_distinct_keeps_order () =
  let db = Rdb_engine.Database.create ~pool_capacity:64 () in
  List.iter
    (fun sql -> ignore (Executor.execute_sql db sql))
    [
      "CREATE TABLE T (A INT, B INT)";
      "CREATE INDEX T_B ON T (B)";
      "INSERT INTO T VALUES (3, 1), (1, 2), (2, 3), (1, 4), (3, 5)";
      "CREATE TABLE U (B INT, C INT)";
      "INSERT INTO U VALUES (1, 10), (2, 20), (3, 30), (4, 40), (5, 50)";
    ];
  let ints rows = List.map (List.map (function Value.Int n -> n | _ -> -1)) rows in
  let expect name sql want = check name true (ints (rows_of db sql) = want) in
  expect "single table" "SELECT DISTINCT A, B FROM T ORDER BY B"
    [ [ 3; 1 ]; [ 1; 2 ]; [ 2; 3 ]; [ 1; 4 ]; [ 3; 5 ] ];
  expect "single table, LIMIT" "SELECT DISTINCT A, B FROM T ORDER BY B LIMIT 2"
    [ [ 3; 1 ]; [ 1; 2 ] ];
  expect "single table, duplicates" "SELECT DISTINCT A FROM T ORDER BY B"
    [ [ 3 ]; [ 1 ]; [ 2 ] ];
  expect "join" "SELECT DISTINCT T.A FROM T, U WHERE T.B = U.B ORDER BY U.C"
    [ [ 3 ]; [ 1 ]; [ 2 ] ];
  expect "join, LIMIT"
    "SELECT DISTINCT T.A, U.C FROM T, U WHERE T.B = U.B ORDER BY U.C LIMIT 2"
    [ [ 3; 10 ]; [ 1; 20 ] ]

let test_exec_aggregates () =
  let db = mkdb () in
  match rows_of db "SELECT COUNT(*), MIN(A), MAX(A), AVG(A) FROM T WHERE A < 5" with
  | [ [ Value.Int count; Value.Int mn; Value.Int mx; Value.Float avg ] ] ->
      check_int "count" 50 count;
      check_int "min" 0 mn;
      check_int "max" 4 mx;
      check "avg" true (Float.abs (avg -. 2.0) < 0.001)
  | _ -> Alcotest.fail "unexpected aggregate result"

let test_exec_host_variables () =
  let db = mkdb () in
  let rows = rows_of db ~env:[ ("LO", Value.int 45) ] "SELECT A FROM T WHERE A >= :LO" in
  check "bound" true (List.for_all (function [ Value.Int a ] -> a >= 45 | _ -> false) rows);
  check "unbound raises" true
    (try
       ignore (rows_of db "SELECT A FROM T WHERE A >= :NOPE");
       false
     with Rdb_engine.Predicate.Unbound_param "NOPE" -> true)

let test_exec_in_subquery () =
  let db = mkdb () in
  let r = Executor.execute_sql db "SELECT COUNT(*) FROM T WHERE A IN (SELECT A FROM T WHERE A < 2)" in
  (match r.Executor.rows with
  | [ [ Value.Int n ] ] -> check_int "A in {0,1}" 20 n
  | _ -> Alcotest.fail "bad result");
  check_int "two retrievals" 2 (List.length r.Executor.summaries)

let test_exec_exists () =
  let db = mkdb () in
  let yes = rows_of db "SELECT COUNT(*) FROM T WHERE EXISTS (SELECT A FROM T WHERE A = 1)" in
  let no = rows_of db "SELECT COUNT(*) FROM T WHERE EXISTS (SELECT A FROM T WHERE A = 999)" in
  (match (yes, no) with
  | [ [ Value.Int y ] ], [ [ Value.Int n ] ] ->
      check_int "exists true keeps all" 500 y;
      check_int "exists false drops all" 0 n
  | _ -> Alcotest.fail "bad results")

let test_exec_errors () =
  let db = mkdb () in
  check "unknown table" true
    (try
       ignore (rows_of db "SELECT A FROM NOPE");
       false
     with Executor.Execution_error _ -> true);
  check "unknown column" true
    (try
       ignore (rows_of db "SELECT NOPE FROM T");
       false
     with Executor.Execution_error _ -> true);
  check "multi-column subquery rejected" true
    (try
       ignore (rows_of db "SELECT A FROM T WHERE A IN (SELECT A, B FROM T)");
       false
     with Executor.Execution_error _ -> true)

let test_exec_delete () =
  let db = mkdb () in
  let as_int = function [ [ Value.Int n ] ] -> n | _ -> -1 in
  let before = as_int (rows_of db "SELECT COUNT(*) FROM T") in
  let r = Executor.execute_sql db "DELETE FROM T WHERE A = 3" in
  (match r.Executor.message with
  | Some m -> check "message" true (m = "10 row(s) deleted from T")
  | None -> Alcotest.fail "no message");
  check_int "rows gone" (before - 10) (as_int (rows_of db "SELECT COUNT(*) FROM T"));
  check_int "none left with A=3" 0 (as_int (rows_of db "SELECT COUNT(*) FROM T WHERE A = 3"));
  (* the index agrees after the deletes *)
  let r2 = Executor.execute_sql db "SELECT COUNT(*) FROM T WHERE A BETWEEN 2 AND 4" in
  check_int "neighbours intact" 20 (as_int r2.Executor.rows)

let test_exec_update () =
  let db = mkdb () in
  let as_int = function [ [ Value.Int n ] ] -> n | _ -> -1 in
  let r = Executor.execute_sql db "UPDATE T SET A = 99 WHERE A = 7" in
  (match r.Executor.message with
  | Some m -> check "message" true (m = "10 row(s) updated in T")
  | None -> Alcotest.fail "no message");
  check_int "old key empty" 0 (as_int (rows_of db "SELECT COUNT(*) FROM T WHERE A = 7"));
  check_int "new key found via index" 10
    (as_int (rows_of db "SELECT COUNT(*) FROM T WHERE A = 99"));
  (* non-key update leaves indexes valid *)
  ignore (Executor.execute_sql db "UPDATE T SET B = 5 WHERE A = 99");
  check_int "b updated" 10 (as_int (rows_of db "SELECT COUNT(*) FROM T WHERE A = 99 AND B = 5"))

let test_exec_update_with_host_var () =
  let db = mkdb () in
  let as_int = function [ [ Value.Int n ] ] -> n | _ -> -1 in
  ignore
    (Executor.execute_sql
       ~env:[ ("NEWB", Value.int 42); ("TARGET", Value.int 11) ]
       db "UPDATE T SET B = :NEWB WHERE A = :TARGET");
  check_int "updated via params" 10
    (as_int (rows_of db ~env:[] "SELECT COUNT(*) FROM T WHERE B = 42"))

let test_exec_delete_everything_and_update_nothing () =
  let db = mkdb () in
  let as_int = function [ [ Value.Int n ] ] -> n | _ -> -1 in
  let r = Executor.execute_sql db "UPDATE T SET B = 1 WHERE A = 12345" in
  check "update nothing" true (r.Executor.message = Some "0 row(s) updated in T");
  ignore (Executor.execute_sql db "DELETE FROM T");
  check_int "all gone" 0 (as_int (rows_of db "SELECT COUNT(*) FROM T"));
  (* aggregates over the empty table *)
  (match rows_of db "SELECT MIN(A), AVG(A), SUM(A) FROM T" with
  | [ [ Value.Null; Value.Null; Value.Null ] ] -> ()
  | _ -> Alcotest.fail "aggregates over empty set must be NULL");
  (* reinsert works after total deletion *)
  ignore (Executor.execute_sql db "INSERT INTO T VALUES (1, 2, 'z')");
  check_int "reborn" 1 (as_int (rows_of db "SELECT COUNT(*) FROM T"))

let test_explain_join () =
  let db = Rdb_engine.Database.create ~pool_capacity:128 () in
  ignore (Executor.execute_sql db "CREATE TABLE CUST (CID INT, CITY INT)");
  ignore (Executor.execute_sql db "CREATE TABLE ORD (OID INT, CID INT)");
  ignore (Executor.execute_sql db "INSERT INTO CUST VALUES (1, 1), (2, 2)");
  ignore (Executor.execute_sql db "INSERT INTO ORD VALUES (10, 1), (11, 1), (12, 2)");
  let r =
    Executor.execute_sql db
      "EXPLAIN SELECT COUNT(*) FROM CUST, ORD WHERE CUST.CID = ORD.CID AND CITY = 1"
  in
  check_int "two retrieval summaries" 2 (List.length r.Executor.summaries)

(* --- joins ----------------------------------------------------------------------- *)

let mk_join_db () =
  let db = Rdb_engine.Database.create ~pool_capacity:512 () in
  ignore (Executor.execute_sql db "CREATE TABLE CUST (CID INT, NAME STRING, CITY INT)");
  ignore (Executor.execute_sql db "CREATE TABLE ORD (OID INT, CID INT, AMT INT)");
  let custs =
    List.init 200 (fun i -> Printf.sprintf "(%d, 'cust%03d', %d)" i i (i mod 10))
  in
  ignore (Executor.execute_sql db ("INSERT INTO CUST VALUES " ^ String.concat ", " custs));
  let ords =
    List.init 2000 (fun i -> Printf.sprintf "(%d, %d, %d)" i (i mod 300) (i mod 97))
  in
  ignore (Executor.execute_sql db ("INSERT INTO ORD VALUES " ^ String.concat ", " ords));
  ignore (Executor.execute_sql db "CREATE INDEX ORD_CID ON ORD (CID)");
  db

let join_oracle db pred_c pred_o =
  (* count pairs (c, o) with c.CID = o.CID satisfying per-side preds *)
  let m = Rdb_storage.Cost.create () in
  let cust = Rdb_engine.Database.table db "CUST" in
  let ord = Rdb_engine.Database.table db "ORD" in
  let count = ref 0 in
  Rdb_storage.Heap_file.iter (Rdb_engine.Table.heap cust) m (fun _ crow ->
      if pred_c crow then
        Rdb_storage.Heap_file.iter (Rdb_engine.Table.heap ord) m (fun _ orow ->
            if Value.equal crow.(0) orow.(1) && pred_o orow then incr count));
  !count

let test_join_parse () =
  let s = Parser.parse_select "SELECT a FROM t, u WHERE t.x = u.y AND t.z = 1" in
  check "joined" true (s.Ast.joined = Some "U");
  match s.Ast.where with
  | Some (Ast.C_and [ Ast.C_cmp_col ("T.X", Ast.Eq, "U.Y"); Ast.C_cmp ("T.Z", _, _) ]) -> ()
  | _ -> Alcotest.fail "join condition misparsed"

let test_join_counts_match_oracle () =
  let db = mk_join_db () in
  let as_int = function [ [ Value.Int n ] ] -> n | _ -> -1 in
  let got =
    as_int
      (rows_of db
         "SELECT COUNT(*) FROM CUST, ORD WHERE CUST.CID = ORD.CID AND CITY = 3 AND AMT < 50")
  in
  let expected =
    join_oracle db
      (fun c -> Value.equal c.(2) (Value.int 3))
      (fun o -> match o.(2) with Value.Int a -> a < 50 | _ -> false)
  in
  check_int "join count" expected got;
  (* no restriction beyond the join *)
  let all = as_int (rows_of db "SELECT COUNT(*) FROM CUST, ORD WHERE CUST.CID = ORD.CID") in
  let expected_all = join_oracle db (fun _ -> true) (fun _ -> true) in
  check_int "full join count" expected_all all

let test_join_projection_and_order () =
  let db = mk_join_db () in
  let rows =
    rows_of db
      "SELECT NAME, AMT FROM CUST, ORD WHERE CUST.CID = ORD.CID AND CITY = 2 ORDER BY AMT        LIMIT 4"
  in
  check_int "limited" 4 (List.length rows);
  let amts = List.map (function [ _; Value.Int a ] -> a | _ -> -1) rows in
  let rec mono = function a :: b :: r -> a <= b && mono (b :: r) | _ -> true in
  check "ordered by AMT" true (mono amts)

(* A LIMIT on a plain join keeps the first rows of the unlimited join
   and stops fetching the outer side once they are in. *)
let test_join_limit_stops_early () =
  let sql = "SELECT NAME, AMT FROM CUST, ORD WHERE CUST.CID = ORD.CID AND AMT > CITY" in
  let all = rows_of (mk_join_db ()) sql in
  let r = Executor.execute_sql (mk_join_db ()) (sql ^ " LIMIT 5") in
  check "prefix of the unlimited join" true
    (r.Executor.rows = List.filteri (fun i _ -> i < 5) all);
  (match r.Executor.summaries with
  | [ ("CUST", outer); ("ORD", _) ] ->
      check "outer stopped early" true (outer.R.rows_delivered < 200)
  | l -> Alcotest.fail (Printf.sprintf "expected 2 summaries, got %d" (List.length l)));
  let exists =
    Executor.execute_sql (mk_join_db ())
      "SELECT OID FROM ORD WHERE OID < 3 AND EXISTS (SELECT NAME FROM CUST, ORD WHERE \
       CUST.CID = ORD.CID)"
  in
  check_int "EXISTS over a join" 3 (List.length exists.Executor.rows);
  match exists.Executor.summaries with
  | ("CUST", outer) :: _ -> check "EXISTS outer stopped early" true (outer.R.rows_delivered < 200)
  | _ -> Alcotest.fail "EXISTS: no CUST summary first"

let test_join_mixed_residual () =
  (* A cross-table non-equality conjunct must be applied post-join. *)
  let db = mk_join_db () in
  let as_int = function [ [ Value.Int n ] ] -> n | _ -> -1 in
  let got =
    as_int
      (rows_of db
         "SELECT COUNT(*) FROM CUST, ORD WHERE CUST.CID = ORD.CID AND CITY < AMT")
  in
  (* direct oracle with the cross predicate *)
  let m = Rdb_storage.Cost.create () in
  let cust = Rdb_engine.Database.table db "CUST" in
  let ord = Rdb_engine.Database.table db "ORD" in
  let count = ref 0 in
  Rdb_storage.Heap_file.iter (Rdb_engine.Table.heap cust) m (fun _ c ->
      Rdb_storage.Heap_file.iter (Rdb_engine.Table.heap ord) m (fun _ o ->
          match (c.(0), o.(1), c.(2), o.(2)) with
          | Value.Int a, Value.Int b, Value.Int city, Value.Int amt when a = b && city < amt
            ->
              incr count
          | _ -> ()));
  check_int "cross-table residual" !count got

let test_join_errors () =
  let db = mk_join_db () in
  check "ambiguous" true
    (try
       ignore (rows_of db "SELECT COUNT(*) FROM CUST, ORD WHERE CID = 1");
       false
     with Executor.Execution_error _ -> true);
  check "unknown qualified" true
    (try
       ignore (rows_of db "SELECT COUNT(*) FROM CUST, ORD WHERE CUST.NOPE = 1");
       false
     with Executor.Execution_error _ -> true)

let test_same_table_column_comparison () =
  (* Cmp_col within one table — "comparing attributes of the same
     index" (§5). *)
  let db = mk_join_db () in
  let as_int = function [ [ Value.Int n ] ] -> n | _ -> -1 in
  let got = as_int (rows_of db "SELECT COUNT(*) FROM ORD WHERE CID = AMT") in
  let m = Rdb_storage.Cost.create () in
  let ord = Rdb_engine.Database.table db "ORD" in
  let count = ref 0 in
  Rdb_storage.Heap_file.iter (Rdb_engine.Table.heap ord) m (fun _ o ->
      if Value.equal o.(1) o.(2) then incr count);
  check_int "self comparison" !count got

(* --- goal inference (§4) ---------------------------------------------------------- *)

let context_of db sql ~outer =
  Executor.goal_context_of_select db (Parser.parse_select sql) ~outer

let test_goal_context_rules () =
  let db = mkdb () in
  check "limit" true
    (context_of db "SELECT A FROM T LIMIT 2" ~outer:None = Some (Goal.Limit 2));
  check "distinct" true
    (context_of db "SELECT DISTINCT A FROM T" ~outer:None = Some Goal.Sort);
  check "aggregate" true
    (context_of db "SELECT COUNT(*) FROM T" ~outer:None = Some Goal.Aggregate);
  (* ORDER BY on an indexed column: no SORT node needed. *)
  check "order by indexed col" true
    (context_of db "SELECT A FROM T ORDER BY A" ~outer:None = None);
  check "order by unindexed col" true
    (context_of db "SELECT A FROM T ORDER BY S" ~outer:None = Some Goal.Sort);
  check "plain select defers to outer" true
    (context_of db "SELECT A FROM T" ~outer:(Some Goal.Exists) = Some Goal.Exists)

let test_paper_nested_example_goals () =
  (* The §4 example: fast-first for C (LIMIT), total-time for B (SORT
     via DISTINCT), total-time for A (explicit request). *)
  let db = Rdb_engine.Database.create ~pool_capacity:256 () in
  ignore (Executor.execute_sql db "CREATE TABLE A (X INT)");
  ignore (Executor.execute_sql db "CREATE TABLE B (Y INT)");
  ignore (Executor.execute_sql db "CREATE TABLE C (Z INT)");
  let ins t n =
    ignore
      (Executor.execute_sql db
         (Printf.sprintf "INSERT INTO %s VALUES %s" t
            (String.concat ", " (List.init n (fun i -> Printf.sprintf "(%d)" (i mod 40))))))
  in
  ins "A" 400;
  ins "B" 200;
  ins "C" 100;
  let r =
    Executor.execute_sql db
      "SELECT X FROM A WHERE X IN (SELECT DISTINCT Y FROM B WHERE Y IN (SELECT Z FROM C \
       LIMIT TO 2 ROWS)) OPTIMIZE FOR TOTAL TIME"
  in
  match r.Executor.summaries with
  | [ ("C", sc); ("B", sb); ("A", sa) ] ->
      check "C fast-first" true (sc.R.goal = Goal.Fast_first);
      check "B total-time" true (sb.R.goal = Goal.Total_time);
      check "A total-time" true (sa.R.goal = Goal.Total_time);
      check "A by user request" true (sa.R.goal_provenance = "user request")
  | l -> Alcotest.fail (Printf.sprintf "expected 3 summaries, got %d" (List.length l))

(* DISTINCT and aggregates need every qualifying row before a LIMIT
   can apply, so the LIMIT does not make their retrieval fast-first. *)
let test_limit_under_distinct_or_aggregate () =
  let summary sql =
    match (Executor.execute_sql (mkdb ()) sql).Executor.summaries with
    | [ (_, s) ] -> s
    | l -> Alcotest.fail (Printf.sprintf "expected 1 summary, got %d" (List.length l))
  in
  check "DISTINCT + LIMIT context" true
    (context_of (mkdb ()) "SELECT DISTINCT A FROM T LIMIT 2" ~outer:None = Some Goal.Sort);
  check "aggregate + LIMIT context" true
    (context_of (mkdb ()) "SELECT COUNT(*) FROM T LIMIT 1" ~outer:None
    = Some Goal.Aggregate);
  let limited = summary "SELECT DISTINCT A FROM T WHERE A < 40 LIMIT 3" in
  let unlimited = summary "SELECT DISTINCT A FROM T WHERE A < 40" in
  check "DISTINCT + LIMIT total-time" true (limited.R.goal = Goal.Total_time);
  check "same cost as without the LIMIT" true
    (limited.R.total_cost = unlimited.R.total_cost);
  check "aggregate + LIMIT total-time" true
    ((summary "SELECT COUNT(*) FROM T WHERE A < 40 LIMIT 1").R.goal = Goal.Total_time)

let test_explain_reports_decisions () =
  let db = mkdb () in
  let r = Executor.execute_sql db "EXPLAIN SELECT S FROM T WHERE A = 1" in
  check "has plan rows" true (r.Executor.rows <> []);
  let text =
    String.concat "\n"
      (List.map (function [ Value.Str s ] -> s | _ -> "") r.Executor.rows)
  in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  check "mentions tactic" true (contains text "tactic")

let () =
  Alcotest.run "rdb_sql"
    [
      ( "lexer",
        [
          Alcotest.test_case "tokens" `Quick test_lexer_tokens;
          Alcotest.test_case "numbers" `Quick test_lexer_numbers;
          Alcotest.test_case "errors" `Quick test_lexer_errors;
        ] );
      ( "parser",
        [
          Alcotest.test_case "select shape" `Quick test_parse_select_shape;
          Alcotest.test_case "precedence" `Quick test_parse_precedence;
          Alcotest.test_case "not/in/is-null" `Quick test_parse_not_in_is_null;
          Alcotest.test_case "subqueries" `Quick test_parse_subqueries;
          Alcotest.test_case "aggregates" `Quick test_parse_aggregates;
          Alcotest.test_case "statements" `Quick test_parse_statements;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "negative/exponent literals" `Quick
            test_parse_negative_and_exponent_literals;
          QCheck_alcotest.to_alcotest prop_print_parse_roundtrip;
          QCheck_alcotest.to_alcotest prop_parser_total_on_garbage;
          Alcotest.test_case "statement printing" `Quick test_statement_printing;
        ] );
      ( "executor",
        [
          Alcotest.test_case "select/where" `Quick test_exec_select_where;
          Alcotest.test_case "NULL semantics" `Quick test_exec_null_semantics;
          Alcotest.test_case "order/limit/distinct" `Quick test_exec_order_limit_distinct;
          Alcotest.test_case "DISTINCT keeps the ORDER BY" `Quick
            test_exec_distinct_keeps_order;
          Alcotest.test_case "aggregates" `Quick test_exec_aggregates;
          Alcotest.test_case "host variables" `Quick test_exec_host_variables;
          Alcotest.test_case "IN subquery" `Quick test_exec_in_subquery;
          Alcotest.test_case "EXISTS" `Quick test_exec_exists;
          Alcotest.test_case "errors" `Quick test_exec_errors;
          Alcotest.test_case "DELETE" `Quick test_exec_delete;
          Alcotest.test_case "UPDATE" `Quick test_exec_update;
          Alcotest.test_case "UPDATE with host vars" `Quick test_exec_update_with_host_var;
        ] );
      ( "dml-edges",
        [
          Alcotest.test_case "delete all / update none / empty aggregates" `Quick
            test_exec_delete_everything_and_update_nothing;
          Alcotest.test_case "EXPLAIN join" `Quick test_explain_join;
        ] );
      ( "joins",
        [
          Alcotest.test_case "parse" `Quick test_join_parse;
          Alcotest.test_case "counts vs oracle" `Quick test_join_counts_match_oracle;
          Alcotest.test_case "projection/order/limit" `Quick test_join_projection_and_order;
          Alcotest.test_case "cross-table residual" `Quick test_join_mixed_residual;
          Alcotest.test_case "LIMIT stops the outer side" `Quick test_join_limit_stops_early;
          Alcotest.test_case "errors" `Quick test_join_errors;
          Alcotest.test_case "same-table column compare" `Quick
            test_same_table_column_comparison;
        ] );
      ( "goals",
        [
          Alcotest.test_case "context rules" `Quick test_goal_context_rules;
          Alcotest.test_case "paper nested example" `Quick test_paper_nested_example_goals;
          Alcotest.test_case "LIMIT under DISTINCT or aggregate" `Quick
            test_limit_under_distinct_or_aggregate;
          Alcotest.test_case "EXPLAIN" `Quick test_explain_reports_decisions;
        ] );
    ]
