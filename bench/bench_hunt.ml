(* Experiment H1: the adversarial schedule hunter. A fixed-seed hunt
   against a deliberately over-claimed follow-leader spec (claimed f = 1
   against a 0-resilient algorithm) measures fuzzing throughput, the hit
   rate by failure class, and how hard the shrinker works — and
   self-checks the hunt's determinism contract by comparing the corpus
   bytes produced at jobs = 1 against the parallel run (exit 1 on any
   divergence). It then measures the hunt's peak major heap at two trial
   counts with every sink on, so that a hunt's memory following its
   hits, not its trials, stays a recorded figure. Last, it times the
   repository benchmark's hunt-observed hunt with its telemetry (metrics,
   a JSONL trace and a heartbeat) on and off in interleaved pairs, and
   records the median overhead against the 5 % budget. Results land in
   BENCH_hunt.json. *)

let json_path = "BENCH_hunt.json"

let spec =
  Algo.Combinators.with_claimed_resilience
    (Counting.Trivial.follow_leader ~n:4 ~c:5)
    ~f:1

let time_bound = 8
let trials = 48

let config ~jobs =
  Sim.Hunt.Config.(
    default |> with_trials trials |> with_phases 3 |> with_phase_rounds 120
    |> with_events 2 |> with_time_bound time_bound |> with_jobs jobs)

(* Trial counts of the memory measurement: the benchmark's hunt-observed
   count and ten times it. *)
let memory_trials = [ 3500; 35000 ]

(* One hunt of [trials] with metrics, a JSONL trace and a 1 s heartbeat,
   the two streams written to the null device: its hit count and its
   peak major heap in MB. The heap is compacted first and sampled at the
   end of every major cycle during the hunt and once after it. *)
let hunt_memory ~jobs ~adversaries trials =
  let config = Sim.Hunt.Config.with_trials trials (config ~jobs) in
  let with_null f = Out_channel.with_open_bin Filename.null f in
  Gc.compact ();
  let peak = ref 0 in
  let sample () = peak := max !peak (Gc.quick_stat ()).Gc.heap_words in
  sample ();
  let alarm = Gc.create_alarm sample in
  let report =
    with_null (fun hb_oc ->
        with_null (fun tr_oc ->
            let hb = Stdx.Heartbeat.create ~interval_s:1.0 ~out:hb_oc () in
            let r =
              Sim.Hunt.run ~metrics:(Stdx.Metrics.create ())
                ~trace:(Sim.Trace.jsonl tr_oc) ~heartbeat:hb ~config ~spec
                ~adversaries ()
            in
            Stdx.Heartbeat.finish hb;
            r))
  in
  sample ();
  Gc.delete_alarm alarm;
  ( List.length report.Sim.Hunt.hits,
    float_of_int (!peak * (Sys.word_size / 8)) /. 1048576.0 )

let corpus_lines ~hunt_seed report =
  List.map Sim.Hunt.Corpus.entry_to_json
    (Sim.Hunt.Corpus.of_report ~spec ~hunt_seed report)

(* The telemetry budget on the repository benchmark's hunt-observed
   hunt (benchmark/workload.ml): 3,500 trials on one domain against the
   standard suite plus greedy confusion, timed with its metrics
   registry, JSONL trace and 1 s heartbeat on and with all three off.
   A pair runs the two hunts alternately, [reps] times each, and keeps
   each side's fastest run: on the shared reference host single runs
   of this hunt range over +-25 % in bursts, and a burst rarely covers
   all of one side's runs. Pairs alternate which side goes first, so
   drift lands on both; the overhead is the median over pairs of
   on / off - 1. *)
let observed_trials = 3500
let telemetry_pairs = 12
let reps = 3
let budget_pct = 5.0

let observed_adversaries () =
  Sim.Adversary.standard_suite ()
  @ [ Sim.Adversary.greedy_confusion ~pool:2 () ]

let observed_config =
  Sim.Hunt.Config.(
    default |> with_trials observed_trials |> with_run_seed 1
    |> with_phase_rounds 120 |> with_time_bound time_bound |> with_jobs 1)

(* One hunt-observed hunt: its wall seconds and its corpus lines. With
   [telemetry] the trace (after its meta line) and the heartbeat go to
   temporary files, removed afterwards, as the benchmark's go to its
   output directory. *)
let observed_hunt ~adversaries ~telemetry =
  let t0 = Stdx.Metrics.wall_clock () in
  let report =
    if not telemetry then
      Sim.Hunt.run ~config:observed_config ~spec ~adversaries ()
    else begin
      let tr_path = Filename.temp_file "bench_hunt_trace" ".jsonl" in
      let hb_path = Filename.temp_file "bench_hunt_hb" ".jsonl" in
      Fun.protect
        ~finally:(fun () ->
          Sys.remove tr_path;
          Sys.remove hb_path)
        (fun () ->
          Out_channel.with_open_bin hb_path (fun hb_oc ->
              let hb =
                Stdx.Heartbeat.create ~label:spec.Algo.Spec.name
                  ~interval_s:1.0 ~out:hb_oc ()
              in
              Fun.protect
                ~finally:(fun () -> Stdx.Heartbeat.finish hb)
                (fun () ->
                  Out_channel.with_open_bin tr_path (fun tr_oc ->
                      let trace = Sim.Trace.jsonl tr_oc in
                      Sim.Trace.emit trace
                        (Sim.Trace.Meta
                           {
                             label = spec.Algo.Spec.name;
                             n = spec.Algo.Spec.n;
                             f = spec.Algo.Spec.f;
                             c = spec.Algo.Spec.c;
                             time_bound = Some time_bound;
                           });
                      Sim.Hunt.run ~metrics:(Stdx.Metrics.create ()) ~trace
                        ~heartbeat:hb ~config:observed_config ~spec
                        ~adversaries ()))))
    end
  in
  let wall = Float.max 0.0 (Stdx.Metrics.wall_clock () -. t0) in
  (wall, corpus_lines ~hunt_seed:observed_config.Sim.Hunt.Config.seed report)

type telemetry = {
  pairs : (float * float) list;  (** each side's fastest seconds: (off, on) *)
  overheads_pct : float list;
  median_pct : float;
  iqr_pct : float;
  identical : bool;
}

let measure_telemetry () =
  let adversaries = observed_adversaries () in
  let run telemetry = observed_hunt ~adversaries ~telemetry in
  (* One untimed run per side warms the heap and the page cache, and
     gives the corpus every later run must write. *)
  let _, corpus = run false in
  ignore (run true);
  let identical = ref true in
  let pairs =
    List.init telemetry_pairs (fun i ->
        let on_first = i mod 2 = 0 in
        let best = [| infinity; infinity |] in
        for _ = 1 to reps do
          List.iter
            (fun telemetry ->
              let wall, lines = run telemetry in
              let side = Bool.to_int telemetry in
              best.(side) <- Float.min best.(side) wall;
              if lines <> corpus then identical := false)
            [ on_first; not on_first ]
        done;
        (best.(0), best.(1)))
  in
  let overheads_pct =
    List.map (fun (off, on) -> 100.0 *. ((on /. off) -. 1.0)) pairs
  in
  let q p = Stdx.Stats.percentile p overheads_pct in
  {
    pairs;
    overheads_pct;
    median_pct = q 0.5;
    iqr_pct = q 0.75 -. q 0.25;
    identical = !identical;
  }

let fingerprint_json () =
  Printf.sprintf "{\"nproc\":%d,\"ocaml\":\"%s\",\"flambda\":%b}"
    (Domain.recommended_domain_count ())
    (Stdx.Json.escape Sys.ocaml_version)
    Build_info.flambda

let seconds l = String.concat "," (List.map (Printf.sprintf "%.4f") l)

let telemetry_json t =
  Printf.sprintf
    "{\"workload\":\"hunt-observed\",\"trials\":%d,\"jobs\":1,\
     \"pairs\":%d,\"reps_per_side\":%d,\"budget_pct\":%.1f,\
     \"median_overhead_pct\":%.2f,\
     \"iqr_overhead_pct\":%.2f,\"within_budget\":%b,\
     \"identical_corpus\":%b,\n\
    \   \"off_s\":[%s],\n\
    \   \"on_s\":[%s],\n\
    \   \"fingerprint\":%s}"
    observed_trials (List.length t.pairs) reps budget_pct t.median_pct
    t.iqr_pct
    (t.median_pct <= budget_pct) t.identical
    (seconds (List.map fst t.pairs))
    (seconds (List.map snd t.pairs))
    (fingerprint_json ())

let json_of_hit (h : _ Sim.Hunt.hit) =
  Printf.sprintf
    "{\"trial\":%d,\"class\":\"%s\",\"score\":%.17g,\"original_size\":%d,\
     \"size\":%d,\"shrink_steps\":%d,\"shrink_kept\":%d,\"schedule\":\"%s\"}"
    h.Sim.Hunt.trial
    (Sim.Hunt.cls_to_string h.Sim.Hunt.cls)
    (Sim.Hunt.score h.Sim.Hunt.badness)
    h.Sim.Hunt.original_size h.Sim.Hunt.size h.Sim.Hunt.shrink_steps
    h.Sim.Hunt.shrink_kept
    (Stdx.Json.escape (Sim.Schedule.describe h.Sim.Hunt.schedule))

let run () =
  Bench_common.section
    "H1: schedule hunting - fuzzing throughput and shrink effort";
  let jobs = Bench_common.default_jobs () in
  let adversaries = Sim.Adversary.standard_suite () in
  let metrics = Stdx.Metrics.create () in
  let hunt ~jobs =
    Stdx.Metrics.timed metrics "bench.hunt_wall_s" (fun () ->
        Sim.Hunt.run ~metrics ~config:(config ~jobs) ~spec ~adversaries ())
  in
  let report, wall_par = hunt ~jobs in
  let report_seq, wall_seq = hunt ~jobs:1 in
  (* Determinism self-check: the corpus — every shrunk reproducer, byte
     for byte — must not depend on the worker count. *)
  let hunt_seed = Sim.Hunt.Config.default.seed in
  let lines_par = corpus_lines ~hunt_seed report
  and lines_seq = corpus_lines ~hunt_seed report_seq in
  if lines_par <> lines_seq then begin
    prerr_endline "bench hunt: corpus diverges between jobs=1 and parallel";
    exit 1
  end;
  let hits = report.Sim.Hunt.hits in
  let by_class c =
    List.length (List.filter (fun h -> h.Sim.Hunt.cls = c) hits)
  in
  let sum f = List.fold_left (fun acc h -> acc + f h) 0 hits in
  let shrink_steps = sum (fun h -> h.Sim.Hunt.shrink_steps) in
  let shrink_kept = sum (fun h -> h.Sim.Hunt.shrink_kept) in
  let size_before = sum (fun h -> h.Sim.Hunt.original_size) in
  let size_after = sum (fun h -> h.Sim.Hunt.size) in
  let table =
    Stdx.Table.create
      [ "jobs"; "trials"; "execs"; "hits"; "wall s"; "execs/s" ]
  in
  List.iter
    (fun (j, (r : _ Sim.Hunt.report), wall) ->
      Stdx.Table.add_row table
        [
          Stdx.Table.cell_int j;
          Stdx.Table.cell_int r.Sim.Hunt.trials;
          Stdx.Table.cell_int r.Sim.Hunt.executions;
          Stdx.Table.cell_int (List.length r.Sim.Hunt.hits);
          Printf.sprintf "%.2f" wall;
          Printf.sprintf "%.0f" (float_of_int r.Sim.Hunt.executions /. wall);
        ])
    [ (jobs, report, wall_par); (1, report_seq, wall_seq) ];
  Stdx.Table.print table;
  Printf.printf
    "%d hit(s): %d failed, %d exceeds-bound, %d near-bound, %d clamped\n"
    (List.length hits) (by_class Sim.Hunt.Failed)
    (by_class Sim.Hunt.Exceeds_bound)
    (by_class Sim.Hunt.Near_bound)
    (by_class Sim.Hunt.Clamped);
  if hits <> [] then
    Printf.printf
      "shrinking: %d candidate execution(s), %d kept, total size %d -> %d\n"
      shrink_steps shrink_kept size_before size_after;
  print_endline "corpus identical at jobs=1 and parallel";
  let memory =
    List.map
      (fun t ->
        let hits, heap_mb = hunt_memory ~jobs ~adversaries t in
        (t, hits, heap_mb))
      memory_trials
  in
  let mem_table = Stdx.Table.create [ "trials"; "hits"; "major heap MB" ] in
  List.iter
    (fun (t, hits, heap_mb) ->
      Stdx.Table.add_row mem_table
        [
          Stdx.Table.cell_int t;
          Stdx.Table.cell_int hits;
          Printf.sprintf "%.1f" heap_mb;
        ])
    memory;
  Stdx.Table.print mem_table;
  let telemetry = measure_telemetry () in
  let tel_table =
    Stdx.Table.create [ "pair"; "off s"; "on s"; "overhead" ]
  in
  List.iteri
    (fun i ((off, on), pct) ->
      Stdx.Table.add_row tel_table
        [
          Stdx.Table.cell_int (i + 1);
          Printf.sprintf "%.4f" off;
          Printf.sprintf "%.4f" on;
          Printf.sprintf "%+.2f%%" pct;
        ])
    (List.combine telemetry.pairs telemetry.overheads_pct);
  Stdx.Table.print tel_table;
  Printf.printf
    "hunt-observed telemetry: median overhead %.2f%% (IQR %.2f points, \
     budget %.0f%%): %s; corpus %s\n"
    telemetry.median_pct telemetry.iqr_pct budget_pct
    (if telemetry.median_pct <= budget_pct then "within budget"
     else "OVER BUDGET")
    (if telemetry.identical then "identical" else "DIVERGED");
  let oc = open_out json_path in
  Printf.fprintf oc
    "{\n\
    \  \"experiment\": \"hunt\",\n\
    \  \"label\": \"%s, claimed f=1\",\n\
    \  \"time_bound\": %d,\n\
    \  \"trials\": %d,\n\
    \  \"executions\": %d,\n\
    \  \"jobs\": %d,\n\
    \  \"wall_s\": %.3f,\n\
    \  \"wall_s_jobs1\": %.3f,\n\
    \  \"executions_per_s\": %.1f,\n\
    \  \"hits\": %d,\n\
    \  \"hits_by_class\": {\"failed\":%d,\"exceeds-bound\":%d,\
     \"near-bound\":%d,\"clamped\":%d},\n\
    \  \"shrink_steps\": %d,\n\
    \  \"shrink_kept\": %d,\n\
    \  \"size_before\": %d,\n\
    \  \"size_after\": %d,\n\
    \  \"jobs_deterministic\": true,\n\
    \  \"hit_records\": [\n   %s\n  ],\n\
    \  \"memory\": [\n   %s\n  ],\n\
    \  \"telemetry\": %s,\n\
    \  \"metrics\": %s\n\
     }\n"
    (Stdx.Json.escape spec.Algo.Spec.name)
    time_bound report.Sim.Hunt.trials report.Sim.Hunt.executions jobs wall_par
    wall_seq
    (float_of_int report.Sim.Hunt.executions /. wall_par)
    (List.length hits) (by_class Sim.Hunt.Failed)
    (by_class Sim.Hunt.Exceeds_bound)
    (by_class Sim.Hunt.Near_bound)
    (by_class Sim.Hunt.Clamped)
    shrink_steps shrink_kept size_before size_after
    (String.concat ",\n   " (List.map json_of_hit hits))
    (String.concat ",\n   "
       (List.map
          (fun (t, hits, heap_mb) ->
            Printf.sprintf "{\"trials\":%d,\"hits\":%d,\"major_heap_mb\":%.2f}"
              t hits heap_mb)
          memory))
    (telemetry_json telemetry)
    (Stdx.Metrics.to_json (Stdx.Metrics.snapshot metrics));
  close_out oc;
  Printf.printf "[hunt record written to %s]\n" json_path;
  if not telemetry.identical then begin
    prerr_endline "bench hunt: corpus diverges with telemetry on and off";
    exit 1
  end
