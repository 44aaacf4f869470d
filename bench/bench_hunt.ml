(* Experiment H1: the adversarial schedule hunter. A fixed-seed hunt
   against a deliberately over-claimed follow-leader spec (claimed f = 1
   against a 0-resilient algorithm) measures fuzzing throughput, the hit
   rate by failure class, and how hard the shrinker works — and
   self-checks the hunt's determinism contract by comparing the corpus
   bytes produced at jobs = 1 against the parallel run (exit 1 on any
   divergence). Results land in BENCH_hunt.json. *)

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

let corpus_lines report =
  List.map Sim.Hunt.Corpus.entry_to_json
    (Sim.Hunt.Corpus.of_report ~spec ~hunt_seed:Sim.Hunt.Config.default.seed
       report)

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
  let lines_par = corpus_lines report and lines_seq = corpus_lines report_seq in
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
    (Stdx.Metrics.to_json (Stdx.Metrics.snapshot metrics));
  close_out oc;
  Printf.printf "[hunt record written to %s]\n" json_path
