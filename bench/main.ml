(* Experiment harness: regenerates every table and figure of the paper
   (see DESIGN.md's experiment index) plus the ablations and
   micro-benchmarks. With no argument, everything runs in sequence;
   individual experiments can be selected by name. *)

let experiments =
  [
    ("sweep", "Streaming engine: early exit vs full horizon", Bench_sweep.run);
    ("parallel", "Cost-aware sweep scheduler: jobs ladder + index-order vs LPT imbalance", Bench_parallel.run);
    ("engine", "Engine throughput and allocation per node-round", Bench_engine.run);
    ("obs", "Observability overhead: spans + heartbeat vs bare engine", Bench_obs.run);
    ("table1", "Table 1: the 2-counting algorithm landscape", Bench_table1.run);
    ("figure1", "Figure 1: leader pointers coincide", Bench_figures.figure1);
    ("figure2", "Figure 2: recursion A(4,1)->A(12,3)->A(36,7)", Bench_figures.figure2);
    ("theorem1", "Theorem 1: time/space bounds vs measurement", Bench_theorems.theorem1);
    ("theorem2", "Theorem 2: fixed-k scaling series", Bench_theorems.theorem2);
    ("theorem3", "Theorem 3: varying-k scaling series", Bench_theorems.theorem3);
    ("corollary1", "Corollary 1: optimal resilience", Bench_theorems.corollary1);
    ( "lemmas",
      "Lemmas 1,3,4,5: window and phase-king behaviour",
      fun () ->
        Bench_lemmas.phase_king_lemmas ();
        Bench_lemmas.dwell_lengths ();
        Bench_lemmas.r_windows () );
    ("pulling", "Theorem 4: sampled pulling", Bench_pulling.sampled_sweep);
    ("oblivious", "Corollary 5: oblivious fixed links", Bench_pulling.oblivious_sweep);
    ("bits", "Bits on the wire: broadcast vs pulling", Bench_pulling.bits_on_wire);
    ("chaos", "Chaos campaigns: recovery under time-varying faults", Bench_chaos.run);
    ("hunt", "Schedule hunting: fuzzing throughput and shrink effort", Bench_hunt.run);
    ("ablations", "Ablations A1-A3", Bench_ablation.run);
    ("bechamel", "Micro-benchmarks", Bench_micro.run);
  ]

let usage () =
  print_endline "usage: bench/main.exe [experiment...]";
  print_endline "experiments:";
  List.iter (fun (name, doc, _) -> Printf.printf "  %-12s %s\n" name doc) experiments;
  print_endline "with no argument, all experiments run in sequence."

let () =
  match Array.to_list Sys.argv with
  | _ :: [] | [] ->
    List.iter (fun (_, _, run) -> run ()) experiments;
    print_newline ();
    print_endline "All experiments completed.";
    print_endline "Paper-vs-measured commentary: see EXPERIMENTS.md."
  | _ :: args ->
    if List.mem "--help" args || List.mem "-h" args then usage ()
    else
      List.iter
        (fun arg ->
          match List.find_opt (fun (name, _, _) -> name = arg) experiments with
          | Some (_, _, run) -> run ()
          | None ->
            Printf.printf "unknown experiment %S\n" arg;
            usage ();
            exit 1)
        args
