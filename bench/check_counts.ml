(* CI gate over the wall-clock benchmark's exact counts.

     sh _perfbench/run.sh --workload oltp --seed 1 --seconds 1 --trace 0 \
       | tail -n 1 \
       | check_counts --expected bench/perf_counts.json --workload oltp [--alloc]

   Five of the benchmark's end-to-end metrics repeat exactly for a given
   seed, because they are taken over a fixed prefix of operations:
   - served_pct, cost_per_op and cost_p99 are cost units, the same on
     every compiler, so they must equal the committed values exactly;
   - alloc_words_per_row and peak_heap_mb are exact for one compiler
     only, so they are gated (with [--alloc]) on the compiler that
     produced the committed values, and fail only when more than 10%
     above them.

   The expected file holds one object per workload, mapping metric name
   to value.  Exit code 0 = all counts hold, 1 = a count moved, 2 = bad
   input. *)

module Json = Rdb_util.Json

let die fmt = Printf.ksprintf (fun s -> prerr_endline s; exit 2) fmt

let parse what text =
  match Json.of_string text with
  | j -> j
  | exception Json.Parse_error m -> die "%s: invalid JSON: %s" what m

let num what j key =
  match Option.bind (Json.member key j) Json.to_num with
  | Some n -> n
  | None -> die "%s: missing numeric field %S" what key

let exact = [ "served_pct"; "cost_per_op"; "cost_p99" ]
let allocation = [ "alloc_words_per_row"; "peak_heap_mb" ]
let tolerance = 0.10

let main expected_path workload alloc =
  let expected_text = In_channel.with_open_text expected_path In_channel.input_all in
  let expected =
    match Json.member workload (parse expected_path expected_text) with
    | Some j -> j
    | None -> die "%s: no entry for workload %S" expected_path workload
  in
  let result = parse "benchmark result" (In_channel.input_all stdin) in
  let metrics =
    match Json.member "metrics" result with
    | Some m -> m
    | None -> die "benchmark result: no \"metrics\" object"
  in
  let current name =
    match Json.member name metrics with
    | Some m -> num ("metric " ^ name) m "value"
    | None -> die "benchmark result: metric %S missing" name
  in
  let failures = ref 0 in
  let report name ok fmt =
    Printf.ksprintf
      (fun s ->
        if not ok then incr failures;
        Printf.printf "%s %s/%s: %s\n" (if ok then "ok  " else "FAIL") workload name s)
      fmt
  in
  List.iter
    (fun name ->
      let want = num expected_path expected name and got = current name in
      report name (got = want) "%.17g (expected exactly %.17g)" got want)
    exact;
  if alloc then
    List.iter
      (fun name ->
        let want = num expected_path expected name and got = current name in
        report name
          (got <= want *. (1.0 +. tolerance))
          "%.6g (committed %.6g, bound +%.0f%%)" got want (100.0 *. tolerance))
      allocation;
  if !failures > 0 then exit 1

open Cmdliner

let expected =
  Arg.(
    required
    & opt (some string) None
    & info [ "expected" ] ~docv:"FILE" ~doc:"Committed counts, one object per workload.")

let workload =
  Arg.(
    required
    & opt (some string) None
    & info [ "workload" ] ~docv:"NAME" ~doc:"Workload name.")

let alloc =
  Arg.(
    value & flag
    & info [ "alloc" ]
        ~doc:
          "Also gate the allocation pair (on the compiler the counts were taken \
           with).")

let () =
  let doc = "check the benchmark's exact counts against committed values" in
  let term = Term.(const main $ expected $ workload $ alloc) in
  exit (Cmd.eval (Cmd.v (Cmd.info "check_counts" ~doc) term))
