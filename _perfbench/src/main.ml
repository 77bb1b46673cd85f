(* The benchmark's one command:

     sh _perfbench/run.sh --workload oltp|storm --seed N --seconds S --trace 0|1

   builds the workload's data from the seed, runs one closed-loop client
   (storm: storms through Session.run) for S seconds, checks every
   answer, and prints each metric by name with its unit; the last line is
   one JSON object.  --trace 1 adds a second, traced timed phase and prints the
   per-layer metrics instead of the end-to-end ones.  A failed answer
   check exits 1 without printing metrics. *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "oltp | storm");
      ("--seed", Arg.Set_int seed, "input seed (default 1)");
      ("--seconds", Arg.Set_float seconds, "length of the timed phase (default 10)");
      ( "--trace",
        Arg.Set_int trace,
        "0: end-to-end metrics; 1: traced run, per-layer metrics" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload NAME --seed N --seconds S --trace 0|1";
  let run =
    match !workload with
    | "oltp" -> Oltp.run
    | "storm" -> Storm.run
    | w ->
        Printf.eprintf "unknown workload %S (oltp, storm)\n" w;
        exit 2
  in
  if !seconds <= 0.0 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline "--seconds must be positive and --trace 0 or 1";
    exit 2
  end;
  Printf.printf "perfbench workload=%s seed=%d seconds=%g trace=%d\n" !workload !seed
    !seconds !trace;
  Bench.print_environment ();
  let errors, attempted, metrics =
    run ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
  in
  match errors with
  | [] -> Bench.emit ~correct:true ~attempted ~failed:0 metrics
  | errs ->
      List.iter (fun e -> Printf.eprintf "answer check failed: %s\n" e) errs;
      exit 1
