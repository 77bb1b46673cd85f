(* Tests for hashed bitmaps, filters, and the hybrid RID list. *)

open Rdb_data
open Rdb_rid

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let rid i = Rid.make ~page:(i / 16) ~slot:(i mod 16)

(* --- bitmap -------------------------------------------------------------- *)

let test_bitmap_no_false_negatives () =
  let b = Bitmap.create ~bits:1024 in
  for i = 0 to 99 do
    Bitmap.add b (rid i)
  done;
  for i = 0 to 99 do
    check "added is member" true (Bitmap.mem b (rid i))
  done

let test_bitmap_false_positive_rate () =
  let b = Bitmap.create ~bits:4096 in
  for i = 0 to 199 do
    Bitmap.add b (rid i)
  done;
  let fp = ref 0 in
  let probes = 2000 in
  for i = 1000 to 1000 + probes - 1 do
    if Bitmap.mem b (rid i) then incr fp
  done;
  let measured = float_of_int !fp /. float_of_int probes in
  let predicted = Bitmap.expected_false_positive_rate b in
  check "fp rate near prediction" true (Float.abs (measured -. predicted) < 0.05);
  check "fp rate smallish" true (measured < 0.1)

let test_bitmap_sizing () =
  let b = Bitmap.create ~bits:7 in
  check "rounded up to >= 64" true (Bitmap.bits b >= 64);
  check_int "population empty" 0 (Bitmap.population b);
  Bitmap.add b (rid 3);
  check "population grows" true (Bitmap.population b >= 1)

(* --- filter -------------------------------------------------------------- *)

let test_filter_exact () =
  let rids = Array.init 50 (fun i -> rid (i * 3)) in
  let f = Filter.of_sorted_array rids in
  check "exact" true (Filter.is_exact f);
  check "member" true (Filter.mem f (rid 9));
  check "non member" false (Filter.mem f (rid 10));
  check_int "size hint" 50 (Filter.size_hint f)

let test_filter_hashed_one_sided () =
  let b = Bitmap.create ~bits:2048 in
  let f = Filter.Hashed b in
  for i = 0 to 49 do
    Bitmap.add b (rid i)
  done;
  check "not exact" false (Filter.is_exact f);
  for i = 0 to 49 do
    check "no false negative" true (Filter.mem f (rid i))
  done

(* --- rid list: tiers -------------------------------------------------------- *)

let fresh_list ?(memory_budget = 64) () =
  let pool = Rdb_storage.Buffer_pool.create ~capacity:256 () in
  let meter = Rdb_storage.Cost.create () in
  (Rid_list.create ~memory_budget pool meter, meter)

let test_inline_tier () =
  let l, _ = fresh_list () in
  for i = 0 to Rid_list.inline_capacity - 1 do
    Rid_list.add l (rid i)
  done;
  check "still inline" true (Rid_list.tier l = Rid_list.Inline);
  check_int "count" Rid_list.inline_capacity (Rid_list.count l)

let test_buffer_promotion () =
  let l, _ = fresh_list () in
  for i = 0 to Rid_list.inline_capacity do
    Rid_list.add l (rid i)
  done;
  check "promoted to buffer" true (Rid_list.tier l = Rid_list.Buffered);
  check_int "count preserved" (Rid_list.inline_capacity + 1) (Rid_list.count l)

let test_spill_promotion () =
  let l, meter = fresh_list ~memory_budget:40 () in
  for i = 0 to 99 do
    Rid_list.add l (rid i)
  done;
  check "spilled" true (Rid_list.tier l = Rid_list.Spilled);
  check_int "count preserved" 100 (Rid_list.count l);
  ignore (Rid_list.to_sorted_array l);
  (* Sealing flushes the tail block: spill writes must be charged. *)
  check "writes charged" true (Rdb_storage.Cost.block_writes meter > 0)

let test_filter_kind_follows_tier () =
  let l, _ = fresh_list () in
  for i = 0 to 30 do
    Rid_list.add l (rid i)
  done;
  check "in-memory filter is exact" true (Filter.is_exact (Rid_list.filter l));
  let l2, _ = fresh_list ~memory_budget:30 () in
  for i = 0 to 99 do
    Rid_list.add l2 (rid i)
  done;
  check "spilled filter is hashed" false (Filter.is_exact (Rid_list.filter l2))

let test_to_sorted_array_all_tiers () =
  List.iter
    (fun n ->
      let l, _ = fresh_list ~memory_budget:40 () in
      (* insert in reverse to exercise sorting *)
      for i = n - 1 downto 0 do
        Rid_list.add l (rid i)
      done;
      let a = Rid_list.to_sorted_array l in
      check_int (Printf.sprintf "n=%d length" n) n (Array.length a);
      let sorted = ref true in
      for i = 1 to Array.length a - 1 do
        if Rid.compare a.(i - 1) a.(i) >= 0 then sorted := false
      done;
      check "sorted strictly" true !sorted)
    [ 0; 5; 20; 21; 60; 200 ]

let test_to_sorted_array_dedups () =
  let l, _ = fresh_list () in
  for _ = 1 to 3 do
    for i = 0 to 9 do
      Rid_list.add l (rid i)
    done
  done;
  check_int "deduped" 10 (Array.length (Rid_list.to_sorted_array l))

let test_add_after_seal_rejected () =
  let l, _ = fresh_list () in
  Rid_list.add l (rid 1);
  ignore (Rid_list.filter l);
  check "sealed" true
    (try
       Rid_list.add l (rid 2);
       false
     with Invalid_argument _ -> true)

let test_filter_membership_matches_contents () =
  List.iter
    (fun n ->
      let l, _ = fresh_list ~memory_budget:64 () in
      for i = 0 to n - 1 do
        Rid_list.add l (rid (2 * i))
      done;
      let f = Rid_list.filter l in
      (* No false negatives ever. *)
      for i = 0 to n - 1 do
        check "member" true (Filter.mem f (rid (2 * i)))
      done;
      (* Exact filters have no false positives either. *)
      if Filter.is_exact f then
        for i = 0 to n - 1 do
          check "non-member" false (Filter.mem f (rid ((2 * i) + 1)))
        done)
    [ 3; 30; 300 ]

let prop_sorted_array_matches_model =
  QCheck.Test.make ~name:"to_sorted_array equals sorted dedup of adds" ~count:80
    QCheck.(pair (int_range 21 80) (list (int_bound 500)))
    (fun (budget, adds) ->
      let pool = Rdb_storage.Buffer_pool.create ~capacity:256 () in
      let meter = Rdb_storage.Cost.create () in
      let l = Rid_list.create ~memory_budget:budget pool meter in
      List.iter (fun i -> Rid_list.add l (rid i)) adds;
      let got = Array.to_list (Rid_list.to_sorted_array l) in
      let want =
        List.sort_uniq Rid.compare (List.map rid adds)
      in
      List.length got = List.length want && List.for_all2 Rid.equal got want)

(* --- exact RID set --------------------------------------------------------- *)

(* Pages and slots span several growth steps of the page array and of
   each page's bit string; the small ranges make duplicate adds common. *)
let prop_rid_set_matches_model =
  QCheck.Test.make ~name:"Rid_set matches a Hashtbl model" ~count:200
    QCheck.(list (pair (int_range 0 40) (int_range 0 300)))
    (fun pairs ->
      let set = Rid_set.create () and model = Hashtbl.create 16 in
      let each_add =
        List.for_all
          (fun (page, slot) ->
            let r = Rid.make ~page ~slot in
            let fresh = not (Hashtbl.mem model r) in
            Hashtbl.replace model r ();
            Rid_set.add set r = fresh
            && Rid_set.mem set r
            && Rid_set.cardinal set = Hashtbl.length model)
          pairs
      in
      let every_probe =
        List.for_all
          (fun page ->
            List.for_all
              (fun slot ->
                let r = Rid.make ~page ~slot in
                Rid_set.mem set r = Hashtbl.mem model r)
              (List.init 310 Fun.id))
          (List.init 45 Fun.id)
      in
      each_add && every_probe)

let test_rid_set_rejects_negative () =
  let set = Rid_set.create () in
  let rejects f =
    match f () with
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  let add ~page ~slot () = Rid_set.add set (Rid.make ~page ~slot) in
  let mem ~page ~slot () = Rid_set.mem set (Rid.make ~page ~slot) in
  check "add negative page" true (rejects (add ~page:(-1) ~slot:0));
  check "add negative slot" true (rejects (add ~page:0 ~slot:(-3)));
  check "mem negative page" true (rejects (mem ~page:(-2) ~slot:1));
  check "mem negative slot" true (rejects (mem ~page:3 ~slot:(-1)));
  check_int "nothing added" 0 (Rid_set.cardinal set)

let () =
  Alcotest.run "rdb_rid"
    [
      ( "bitmap",
        [
          Alcotest.test_case "no false negatives" `Quick test_bitmap_no_false_negatives;
          Alcotest.test_case "false positive rate" `Quick test_bitmap_false_positive_rate;
          Alcotest.test_case "sizing" `Quick test_bitmap_sizing;
        ] );
      ( "filter",
        [
          Alcotest.test_case "exact" `Quick test_filter_exact;
          Alcotest.test_case "hashed one-sided" `Quick test_filter_hashed_one_sided;
        ] );
      ( "rid_list",
        [
          Alcotest.test_case "inline tier" `Quick test_inline_tier;
          Alcotest.test_case "buffer promotion" `Quick test_buffer_promotion;
          Alcotest.test_case "spill promotion" `Quick test_spill_promotion;
          Alcotest.test_case "filter kind per tier" `Quick test_filter_kind_follows_tier;
          Alcotest.test_case "sorted array all tiers" `Quick test_to_sorted_array_all_tiers;
          Alcotest.test_case "dedup" `Quick test_to_sorted_array_dedups;
          Alcotest.test_case "sealed" `Quick test_add_after_seal_rejected;
          Alcotest.test_case "filter membership" `Quick test_filter_membership_matches_contents;
          QCheck_alcotest.to_alcotest prop_sorted_array_matches_model;
        ] );
      ( "rid_set",
        [
          QCheck_alcotest.to_alcotest prop_rid_set_matches_model;
          Alcotest.test_case "negative rid rejected" `Quick test_rid_set_rejects_negative;
        ] );
    ]
