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

(* --- row codec ----------------------------------------------------------- *)

let prop_row_roundtrip =
  QCheck.Test.make ~name:"encode/decode roundtrip" ~count:300
    (QCheck.list_of_size (QCheck.Gen.int_range 0 8) arb_value)
    (fun vs ->
      let row = Array.of_list vs in
      Row.equal row (Row.decode (Row.encode row)))

let test_row_project_compare () =
  let r1 = [| Value.int 1; Value.str "b"; Value.int 9 |] in
  let r2 = [| Value.int 1; Value.str "a"; Value.int 5 |] in
  check "project" true
    (Row.equal (Row.project r1 [| 2; 0 |]) [| Value.int 9; Value.int 1 |]);
  check "compare_at first col ties" true (Row.compare_at [| 0 |] r1 r2 = 0);
  check "compare_at second col" true (Row.compare_at [| 0; 1 |] r1 r2 > 0)

let test_row_decode_corrupt () =
  check "truncated fails" true
    (try
       ignore (Row.decode (Bytes.of_string "\x02\x00\x01"));
       false
     with Failure _ -> true)

(* --- reading the encoding in place ---------------------------------------- *)

(* Values that collide across types: Int/Float twins, nan, short strings
   over a two-letter alphabet. *)
let arb_field =
  QCheck.make ~print:Value.to_string
    QCheck.Gen.(
      oneof
        [
          return Value.Null;
          map Value.int (int_range (-3) 3);
          map (fun i -> Value.float (float_of_int i)) (int_range (-3) 3);
          map Value.float (float_range (-3.0) 3.0);
          return (Value.float Float.nan);
          map Value.str (string_size ~gen:(oneofl [ 'a'; 'b' ]) (int_range 0 3));
        ])

let same_value a b = Value.type_of a = Value.type_of b && Value.compare a b = 0

let prop_field_readers_agree =
  QCheck.Test.make ~name:"field readers agree with decode" ~count:300
    (QCheck.pair (QCheck.list_of_size (QCheck.Gen.int_range 1 6) arb_field) arb_field)
    (fun (vs, probe) ->
      let row = Array.of_list vs in
      let bytes = Row.encode row in
      let decoded = Row.decode bytes in
      let agrees i =
        let off = Row.field_offset bytes i in
        same_value (Row.field_value bytes off) decoded.(i)
        && Row.field_is_null bytes off = Value.is_null decoded.(i)
        && List.for_all
             (fun v -> Row.compare_field bytes off v = Value.compare decoded.(i) v)
             (probe :: vs)
      in
      List.for_all agrees (List.init (Array.length row) Fun.id))

let fails f =
  match f () with
  | _ -> false
  | exception Failure _ -> true

(* Every reader of a field the damage reaches raises [Failure], as
   [decode] does; fields wholly before a cut still read back. *)
let prop_damaged_input_fails =
  QCheck.Test.make ~name:"truncated or bad-tag input raises Failure" ~count:300
    (QCheck.triple
       (QCheck.list_of_size (QCheck.Gen.int_range 1 6) arb_field)
       QCheck.small_nat QCheck.small_nat)
    (fun (vs, cut_seed, tag_seed) ->
      (* shrinking may empty the list *)
      vs = []
      ||
      let row = Array.of_list vs in
      let n = Array.length row in
      let bytes = Row.encode row in
      let ends =
        Array.init n (fun i ->
            if i + 1 < n then Row.field_offset bytes (i + 1) else Bytes.length bytes)
      in
      let readers b i =
        [
          (fun () -> ignore (Row.field_value b (Row.field_offset b i)));
          (fun () -> ignore (Row.field_is_null b (Row.field_offset b i)));
          (fun () -> ignore (Row.compare_field b (Row.field_offset b i) Value.Null));
        ]
      in
      let k = cut_seed mod Bytes.length bytes in
      let cut = Bytes.sub bytes 0 k in
      let truncated_ok =
        fails (fun () -> Row.decode cut)
        && List.for_all
             (fun i ->
               if ends.(i) > k then List.for_all fails (readers cut i)
               else same_value (Row.field_value cut (Row.field_offset cut i)) row.(i))
             (List.init n Fun.id)
      in
      let i = tag_seed mod n in
      let bad = Bytes.copy bytes in
      Bytes.set bad (Row.field_offset bytes i) (Char.chr (4 + (tag_seed mod 252)));
      let bad_tag_ok =
        fails (fun () -> Row.decode bad)
        && List.for_all fails (readers bad i)
        && (i + 1 >= n || fails (fun () -> Row.field_offset bad (i + 1)))
      in
      truncated_ok && bad_tag_ok)

let test_field_offset_range () =
  let bytes = Row.encode [| Value.int 1; Value.Null |] in
  check "past the arity" true
    (match Row.field_offset bytes 2 with
    | exception Invalid_argument _ -> true
    | _ -> false);
  check "negative" true
    (match Row.field_offset bytes (-1) with
    | exception Invalid_argument _ -> true
    | _ -> false)

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
      ( "row",
        [
          QCheck_alcotest.to_alcotest prop_row_roundtrip;
          Alcotest.test_case "project/compare" `Quick test_row_project_compare;
          Alcotest.test_case "corrupt decode" `Quick test_row_decode_corrupt;
          QCheck_alcotest.to_alcotest prop_field_readers_agree;
          QCheck_alcotest.to_alcotest prop_damaged_input_fails;
          Alcotest.test_case "field_offset range" `Quick test_field_offset_range;
        ] );
    ]
