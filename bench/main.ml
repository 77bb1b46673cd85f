(* Benchmark harness: regenerates every quantitative artifact of the
   paper (figures 2.1, 2.2, 5; the hyperbola-fit and §3 competition
   numbers; the §4-§7 performance claims) plus ablations.

     dune exec bench/main.exe            # run everything
     dune exec bench/main.exe -- -l      # list experiments
     dune exec bench/main.exe -- -e fig5 -e jscan   # run a subset *)

let experiments : (string * string * (unit -> unit)) list =
  [
    (Exp_fig21.name, Exp_fig21.description, Exp_fig21.run);
    (Exp_fig22.name, Exp_fig22.description, Exp_fig22.run);
    (Exp_hyperbola.name, Exp_hyperbola.description, Exp_hyperbola.run);
    (Exp_competition.name, Exp_competition.description, Exp_competition.run);
    (Exp_fig5.name, Exp_fig5.description, Exp_fig5.run);
    (Exp_hostvar.name, Exp_hostvar.description, Exp_hostvar.run);
    (Exp_jscan.name, Exp_jscan.description, Exp_jscan.run);
    (Exp_tactics.name, Exp_tactics.description, Exp_tactics.run);
    (Exp_goal.name, Exp_goal.description, Exp_goal.run);
    (Exp_shortcut.name, Exp_shortcut.description, Exp_shortcut.run);
    (Exp_sampling.name, Exp_sampling.description, Exp_sampling.run);
    (Exp_orscan.name, Exp_orscan.description, Exp_orscan.run);
    (Exp_histogram.name, Exp_histogram.description, Exp_histogram.run);
    (Exp_correlation.name, Exp_correlation.description, Exp_correlation.run);
    (Exp_interference.name, Exp_interference.description, Exp_interference.run);
    (Exp_join.name, Exp_join.description, Exp_join.run);
    (Exp_mixed.name, Exp_mixed.description, Exp_mixed.run);
    (Exp_clustering.name, Exp_clustering.description, Exp_clustering.run);
    (Exp_faults.name, Exp_faults.description, Exp_faults.run);
    (Exp_concurrency.name, Exp_concurrency.description, Exp_concurrency.run);
    (Exp_chaos.name, Exp_chaos.description, Exp_chaos.run);
    (Exp_storm.name, Exp_storm.description, Exp_storm.run);
    (Exp_crash.name, Exp_crash.description, Exp_crash.run);
    (Exp_feedback.name, Exp_feedback.description, Exp_feedback.run);
    (Exp_hybrid.name, Exp_hybrid.description, Exp_hybrid.run);
  ]

let list_experiments () =
  print_endline "available experiments:";
  List.iter (fun (n, d, _) -> Printf.printf "  %-12s %s\n" n d) experiments

module Json = Rdb_util.Json

(* Checkpoint lines are the "NAME: true|false" booleans every
   experiment prints in its "paper checkpoints" section. *)
let parse_checkpoints out =
  List.filter_map
    (fun line ->
      let line = String.trim line in
      let ends suffix =
        let n = String.length suffix in
        String.length line > n && String.sub line (String.length line - n) n = suffix
      in
      if ends ": true" then Some (String.sub line 0 (String.length line - 6), true)
      else if ends ": false" then Some (String.sub line 0 (String.length line - 7), false)
      else None)
    (String.split_on_char '\n' out)

(* BENCH_<id>.json: the experiment's checkpoint booleans (mirroring the
   text output exactly) plus every [Bench_common.metric] it recorded,
   with the gating direction — the input of bench/diff_baseline.exe. *)
let write_json dir name out =
  let checkpoints = parse_checkpoints out in
  let j =
    Json.Obj
      [
        ("experiment", Json.Str name);
        ( "checkpoints",
          Json.Arr
            (List.map
               (fun (n, pass) ->
                 Json.Obj [ ("name", Json.Str n); ("pass", Json.Bool pass) ])
               checkpoints) );
        ( "metrics",
          Json.Arr
            (List.map
               (fun (n, v, d) ->
                 Json.Obj
                   [
                     ("name", Json.Str n);
                     ("value", Json.Num v);
                     ("direction", Json.Str (Bench_common.direction_to_string d));
                   ])
               (Bench_common.metrics ())) );
      ]
  in
  let path = Filename.concat dir (Printf.sprintf "BENCH_%s.json" name) in
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc (Json.to_string ~pretty:true j);
      Out_channel.output_char oc '\n');
  Printf.printf "wrote %s\n" path

(* Run one experiment with stdout captured to a temp file, then replay
   it and scan the "paper checkpoints" booleans: any line ending in
   ": false" is a failed checkpoint.  This makes the harness its own
   gate — CI (and any scripted run) fails on exit code instead of
   grepping, so a checkpoint regression can never pass vacuously. *)
let run_gated ?json_dir (name, _, run) =
  Bench_common.reset_metrics ();
  flush stdout;
  let saved = Unix.dup Unix.stdout in
  let tmp = Filename.temp_file "rdb-bench" ".out" in
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  Unix.dup2 fd Unix.stdout;
  Unix.close fd;
  let restore () =
    flush stdout;
    Unix.dup2 saved Unix.stdout;
    Unix.close saved
  in
  (match run () with
  | () -> restore ()
  | exception e ->
      restore ();
      let out = In_channel.with_open_text tmp In_channel.input_all in
      Sys.remove tmp;
      print_string out;
      raise e);
  let out = In_channel.with_open_text tmp In_channel.input_all in
  Sys.remove tmp;
  print_string out;
  (match json_dir with None -> () | Some dir -> write_json dir name out);
  let failed =
    List.filter
      (fun line ->
        let line = String.trim line in
        String.length line >= 7
        && String.sub line (String.length line - 7) 7 = ": false")
      (String.split_on_char '\n' out)
  in
  List.iter (Printf.eprintf "CHECKPOINT FAILED [%s] %s\n" name) failed;
  List.length failed

let main selected list_only json json_dir =
  if list_only then list_experiments ()
  else begin
    let json_dir = if json then Some json_dir else None in
    let to_run =
      match selected with
      | [] -> experiments
      | names ->
          List.filter_map
            (fun n ->
              match List.find_opt (fun (name, _, _) -> name = n) experiments with
              | Some e -> Some e
              | None ->
                  Printf.eprintf "unknown experiment %S (use -l to list)\n" n;
                  exit 2)
            names
    in
    let failures = List.fold_left (fun acc e -> acc + run_gated ?json_dir e) 0 to_run in
    print_newline ();
    if failures > 0 then begin
      Printf.eprintf "%d paper checkpoint(s) failed\n" failures;
      exit 1
    end
  end

open Cmdliner

let selected =
  Arg.(
    value & opt_all string []
    & info [ "e"; "experiment" ] ~docv:"ID" ~doc:"Run only the given experiment(s).")

let list_only = Arg.(value & flag & info [ "l"; "list" ] ~doc:"List experiments and exit.")

let json_flag =
  Arg.(
    value & flag
    & info [ "json" ]
        ~doc:
          "Also write BENCH_<id>.json per experiment (checkpoint booleans + recorded \
           cost metrics) for the CI perf-regression gate.")

let json_dir_opt =
  Arg.(
    value & opt string "."
    & info [ "json-dir" ] ~docv:"DIR" ~doc:"Directory for BENCH_<id>.json files.")

let cmd =
  let doc = "regenerate the paper's tables and figures" in
  Cmd.v (Cmd.info "rdb-bench" ~doc)
    Term.(const main $ selected $ list_only $ json_flag $ json_dir_opt)

let () = exit (Cmd.eval cmd)
