(* Tests for values, schemas, rows, RIDs. *)

open Rdb_data

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- values ----------------------------------------------------------- *)

let test_value_order () =
  check "null smallest" true (Value.compare Value.Null (Value.int (-100)) < 0);
  check "int float mixed" true (Value.compare (Value.int 2) (Value.float 2.5) < 0);
  check "int float equal" true (Value.compare (Value.int 2) (Value.float 2.0) = 0);
  check "numeric below string" true (Value.compare (Value.int 5) (Value.str "a") < 0);
  check "string order" true (Value.compare (Value.str "abc") (Value.str "abd") < 0)

let arb_value =
  QCheck.make
    ~print:Value.to_string
    QCheck.Gen.(
      oneof
        [
          return Value.Null;
          map Value.int (int_range (-1000) 1000);
          map Value.float (float_range (-100.0) 100.0);
          map Value.str (string_size ~gen:printable (int_range 0 12));
        ])

let prop_compare_total_order =
  QCheck.Test.make ~name:"compare is a total order" ~count:300
    (QCheck.triple arb_value arb_value arb_value)
    (fun (a, b, c) ->
      let antisym = not (Value.compare a b < 0 && Value.compare b a < 0) in
      let trans =
        if Value.compare a b <= 0 && Value.compare b c <= 0 then Value.compare a c <= 0
        else true
      in
      let refl = Value.compare a a = 0 in
      antisym && trans && refl)

let test_succ_approx () =
  check "int succ" true (Value.compare (Value.int 5) (Value.succ_approx (Value.int 5)) < 0);
  check "str succ" true
    (Value.compare (Value.str "ab") (Value.succ_approx (Value.str "ab")) < 0);
  check "float succ" true
    (Value.compare (Value.float 1.0) (Value.succ_approx (Value.float 1.0)) < 0)

let test_coercions () =
  check "as_float of int" true (Value.as_float (Value.int 3) = Some 3.0);
  check "as_int of str" true (Value.as_int (Value.str "3") = None)

(* --- rid --------------------------------------------------------------- *)

let test_rid_order_is_physical () =
  let r1 = Rid.make ~page:1 ~slot:9 and r2 = Rid.make ~page:2 ~slot:0 in
  check "page major" true (Rid.compare r1 r2 < 0);
  check "slot minor" true
    (Rid.compare (Rid.make ~page:1 ~slot:1) (Rid.make ~page:1 ~slot:2) < 0)

let test_rid_int_roundtrip () =
  for page = 0 to 20 do
    for slot = 0 to 19 do
      let r = Rid.make ~page ~slot in
      let r' = Rid.of_int (Rid.to_int r ~slots_per_page:20) ~slots_per_page:20 in
      check "roundtrip" true (Rid.equal r r')
    done
  done

let test_rid_hash_spreads () =
  let seen = Hashtbl.create 64 in
  for page = 0 to 99 do
    for slot = 0 to 9 do
      Hashtbl.replace seen (Rid.hash (Rid.make ~page ~slot) mod 1024) ()
    done
  done;
  check "hash covers many buckets" true (Hashtbl.length seen > 500)

(* --- schema ------------------------------------------------------------ *)

let schema =
  Schema.make
    [ Schema.col "A" Value.T_int; Schema.col ~nullable:true "B" Value.T_str;
      Schema.col "C" Value.T_float ]

let test_schema_lookup () =
  check_int "index_of" 1 (Schema.index_of schema "B");
  check "find missing" true (Schema.find schema "Z" = None);
  Alcotest.check_raises "index_of missing" Not_found (fun () ->
      ignore (Schema.index_of schema "Z"))

let test_schema_dup_rejected () =
  check "dup raises" true
    (try
       ignore (Schema.make [ Schema.col "X" Value.T_int; Schema.col "X" Value.T_int ]);
       false
     with Invalid_argument _ -> true)

let test_validate_row () =
  let ok = Schema.validate_row schema [| Value.int 1; Value.Null; Value.float 2.0 |] in
  check "valid row" true (ok = Ok ());
  let int_in_float =
    Schema.validate_row schema [| Value.int 1; Value.str "x"; Value.int 2 |]
  in
  check "int accepted in float col" true (int_in_float = Ok ());
  check "null in non-nullable" true
    (match Schema.validate_row schema [| Value.Null; Value.Null; Value.float 0.0 |] with
    | Error _ -> true
    | Ok () -> false);
  check "arity" true
    (match Schema.validate_row schema [| Value.int 1 |] with Error _ -> true | Ok () -> false);
  check "type mismatch" true
    (match Schema.validate_row schema [| Value.str "no"; Value.Null; Value.float 0.0 |] with
    | Error _ -> true
    | Ok () -> false)

(* --- rows ----------------------------------------------------------------- *)

let test_row_project_compare () =
  let r1 = [| Value.int 1; Value.str "b"; Value.int 9 |] in
  let r2 = [| Value.int 1; Value.str "a"; Value.int 5 |] in
  check "project" true
    (Row.equal (Row.project r1 [| 2; 0 |]) [| Value.int 9; Value.int 1 |]);
  check "compare_at first col ties" true (Row.compare_at [| 0 |] r1 r2 = 0);
  check "compare_at second col" true (Row.compare_at [| 0; 1 |] r1 r2 > 0)

let () =
  Alcotest.run "rdb_data"
    [
      ( "value",
        [
          Alcotest.test_case "ordering" `Quick test_value_order;
          QCheck_alcotest.to_alcotest prop_compare_total_order;
          Alcotest.test_case "succ_approx" `Quick test_succ_approx;
          Alcotest.test_case "coercions" `Quick test_coercions;
        ] );
      ( "rid",
        [
          Alcotest.test_case "physical order" `Quick test_rid_order_is_physical;
          Alcotest.test_case "int roundtrip" `Quick test_rid_int_roundtrip;
          Alcotest.test_case "hash spreads" `Quick test_rid_hash_spreads;
        ] );
      ( "schema",
        [
          Alcotest.test_case "lookup" `Quick test_schema_lookup;
          Alcotest.test_case "duplicates rejected" `Quick test_schema_dup_rejected;
          Alcotest.test_case "validate_row" `Quick test_validate_row;
        ] );
      ( "row", [ Alcotest.test_case "project/compare" `Quick test_row_project_compare ] );
    ]
