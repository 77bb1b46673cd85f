open Rdb_data
open Rdb_engine
module Prng = Rdb_util.Prng

let fresh_db ?(pool_capacity = 128) ?(pool_shards = 1) () =
  Database.create ~pool_capacity ~pool_shards ()

let families ?(rows = 20000) ?(seed = 1) db =
  let schema =
    Schema.make
      [
        Schema.col "ID" Value.T_int;
        Schema.col "AGE" Value.T_int;
        Schema.col "NAME" Value.T_str;
        Schema.col "CITY" Value.T_str;
        Schema.col "PROFILE" Value.T_str;
      ]
  in
  let t = Database.create_table db ~name:"FAMILIES" schema in
  let rng = Prng.create ~seed in
  let cities = [| "nashua"; "boston"; "keene"; "concord"; "salem"; "dover" |] in
  (* A realistic record width (~250 bytes) so that pages hold a few
     dozen records and random fetches cost what they should. *)
  let profile i = String.init 200 (fun k -> Char.chr (97 + ((i + k) mod 26))) in
  for i = 0 to rows - 1 do
    let age = Prng.int rng 101 in
    ignore
      (Table.insert t
         [|
           Value.int i;
           Value.int age;
           Value.str (Printf.sprintf "family-%06d" i);
           Value.str (Prng.choose rng cities);
           Value.str (profile i);
         |])
  done;
  ignore (Table.create_index t ~name:"AGE_IDX" ~columns:[ "AGE" ] ());
  t

let orders ?(rows = 30000) ?(seed = 2) db =
  let schema =
    Schema.make
      [
        Schema.col "ID" Value.T_int;
        Schema.col "CUSTOMER" Value.T_int;
        Schema.col "PRODUCT" Value.T_int;
        Schema.col "DAY" Value.T_int;
        Schema.col "PRICE" Value.T_int;
        Schema.col "QTY" Value.T_int;
      ]
  in
  let t = Database.create_table db ~name:"ORDERS" schema in
  let rng = Prng.create ~seed in
  let zc = Zipf.create ~n:2000 ~theta:1.0 in
  let zp = Zipf.create ~n:500 ~theta:1.0 in
  (* Insert in day order over 365 days: DAY_IDX ends up clustered. *)
  for i = 0 to rows - 1 do
    let day = i * 365 / rows in
    ignore
      (Table.insert t
         [|
           Value.int i;
           Value.int (Zipf.draw zc rng);
           Value.int (Zipf.draw zp rng);
           Value.int day;
           Value.int (10 + Prng.int rng 4990);
           Value.int (1 + Prng.int rng 20);
         |])
  done;
  ignore (Table.create_index t ~name:"CUST_IDX" ~columns:[ "CUSTOMER" ] ());
  ignore (Table.create_index t ~name:"PROD_IDX" ~columns:[ "PRODUCT" ] ());
  ignore (Table.create_index t ~name:"DAY_IDX" ~columns:[ "DAY" ] ());
  ignore (Table.create_index t ~name:"PRICE_IDX" ~columns:[ "PRICE" ] ());
  t

let sensors ?(rows = 40000) ?(seed = 4) db =
  let schema =
    Schema.make
      [
        Schema.col "ID" Value.T_int;
        Schema.col "T" Value.T_int;
        Schema.col "A" Value.T_int;
        Schema.col "B" Value.T_int;
      ]
  in
  let t = Database.create_table db ~name:"SENSORS" schema in
  let rng = Prng.create ~seed in
  for i = 0 to rows - 1 do
    let a = Prng.int rng 10_000 in
    let b = a + Prng.int_in rng (-200) 200 in
    ignore (Table.insert t [| Value.int i; Value.int i; Value.int a; Value.int b |])
  done;
  ignore (Table.create_index t ~name:"A_IDX" ~columns:[ "A" ] ());
  ignore (Table.create_index t ~name:"B_IDX" ~columns:[ "B" ] ());
  ignore (Table.create_index t ~name:"T_IDX" ~columns:[ "T" ] ());
  t

let employees ?(rows = 20000) ?(seed = 3) db =
  let schema =
    Schema.make
      [
        Schema.col "ID" Value.T_int;
        Schema.col "DEPT" Value.T_int;
        Schema.col "SALARY" Value.T_int;
        Schema.col "AGE" Value.T_int;
        Schema.col "NAME" Value.T_str;
      ]
  in
  let t = Database.create_table db ~name:"EMPLOYEES" schema in
  let rng = Prng.create ~seed in
  for i = 0 to rows - 1 do
    let dept = Prng.int rng 40 in
    let salary =
      int_of_float (Prng.normal rng ~mean:60000.0 ~stddev:15000.0)
      |> Int.max 20000 |> Int.min 200000
    in
    ignore
      (Table.insert t
         [|
           Value.int i;
           Value.int dept;
           Value.int salary;
           Value.int (22 + Prng.int rng 43);
           Value.str (Printf.sprintf "emp-%06d" i);
         |])
  done;
  ignore (Table.create_index t ~name:"DEPT_SAL_IDX" ~columns:[ "DEPT"; "SALARY" ] ());
  ignore (Table.create_index t ~name:"AGE_IDX" ~columns:[ "AGE" ] ());
  t
