(* Experiment C1: chaos campaigns. Random time-varying fault schedules
   (per-phase faulty set + adversary, plus transient state corruption)
   against the trivial, phase-king-boosted and recursively boosted
   counters, measuring the distribution of per-phase recovery times —
   rounds from the last perturbation back to stable counting — against
   the paper's stabilisation-time bound. Results land in
   BENCH_chaos.json for the repo's perf trajectory. *)

let json_path = "BENCH_chaos.json"

type subject = {
  label : string;
  packed : Algo.Spec.packed;
  time_bound : int;
  phase_rounds : int;
}

let subjects () =
  let tower levels =
    let t = Counting.Plan.plan_tower_exn ~target_c:2 levels in
    (Counting.Build.tower t, (Counting.Plan.top t).Counting.Plan.time_bound)
  in
  let a41, a41_bound = tower (Counting.Plan.corollary1_levels ~f:1) in
  let a12_3, a12_3_bound =
    tower
      [
        { Counting.Plan.k = 4; big_f = 1 }; { Counting.Plan.k = 3; big_f = 3 };
      ]
  in
  [
    (* f = 0: schedules degenerate to transient corruption only — the
       pure self-stabilisation baseline (exact T = 1). *)
    {
      label = "trivial follow-leader(4)";
      packed = Algo.Spec.Packed (Counting.Trivial.follow_leader ~n:4 ~c:2);
      time_bound = 1;
      phase_rounds = 120;
    };
    {
      label = "phase-king A(4,1)";
      packed = a41;
      time_bound = a41_bound;
      phase_rounds = 700;
    };
    {
      label = "boosted A(12,3)";
      packed = a12_3;
      time_bound = a12_3_bound;
      phase_rounds = 900;
    };
  ]

let config ~phase_rounds ~jobs =
  Sim.Harness.Chaos.Config.(
    default |> with_campaigns 3 |> with_phases 3 |> with_events 2
    |> with_max_victims 2 |> with_seeds [ 1; 2 ]
    |> with_phase_rounds phase_rounds |> with_jobs jobs)

let json_of_outcome (o : Sim.Harness.Chaos.outcome) =
  Printf.sprintf
    "{\"schedule_seed\":%d,\"seed\":%d,\"schedule\":\"%s\",\
     \"recovered\":%b,\"worst_recovery\":%s,\"rounds_simulated\":%d,\
     \"horizon\":%d,\"recoveries\":[%s]}"
    o.Sim.Harness.Chaos.schedule_seed o.Sim.Harness.Chaos.run_seed
    (Stdx.Json.escape o.Sim.Harness.Chaos.schedule)
    o.Sim.Harness.Chaos.recovered
    (match o.Sim.Harness.Chaos.worst_recovery with
    | Some w -> string_of_int w
    | None -> "null")
    o.Sim.Harness.Chaos.rounds_simulated o.Sim.Harness.Chaos.horizon
    (String.concat ","
       (List.map
          (fun (r : Sim.Engine.phase_report) ->
            match r.Sim.Engine.recovery with
            | Some v -> string_of_int v
            | None -> "null")
          o.Sim.Harness.Chaos.phases))

let json_of_subject (s, cfg, agg) =
  let open Sim.Harness.Chaos in
  let (Algo.Spec.Packed spec) = s.packed in
  let opt_int = function Some v -> string_of_int v | None -> "null" in
  let opt_float = function
    | Some v -> Printf.sprintf "%.1f" v
    | None -> "null"
  in
  Printf.sprintf
    "    {\"label\":\"%s\",\"n\":%d,\"f\":%d,\"c\":%d,\"time_bound\":%d,\n\
    \     \"campaigns\":%d,\"phases_per_schedule\":%d,\
     \"events_per_schedule\":%d,\"phase_rounds\":%d,\"seeds\":[%s],\n\
    \     \"runs\":%d,\"phase_verdicts\":%d,\"phase_failures\":%d,\
     \"all_recovered\":%b,\n\
    \     \"worst_recovery\":%s,\"recovery_p50\":%s,\"recovery_p90\":%s,\n\
    \     \"recoveries\":[%s],\"total_rounds_simulated\":%d,\n\
    \     \"outcomes\":[\n      %s\n     ]}"
    (Stdx.Json.escape s.label)
    spec.Algo.Spec.n spec.Algo.Spec.f spec.Algo.Spec.c s.time_bound
    cfg.Config.campaigns cfg.Config.phases cfg.Config.events
    cfg.Config.phase_rounds
    (String.concat "," (List.map string_of_int cfg.Config.seeds))
    (List.length agg.outcomes) agg.phase_verdicts agg.phase_failures
    agg.all_recovered
    (opt_int agg.worst_recovery)
    (opt_float agg.recovery_p50)
    (opt_float agg.recovery_p90)
    (String.concat "," (List.map string_of_int agg.recoveries))
    agg.total_rounds_simulated
    (String.concat ",\n      " (List.map json_of_outcome agg.outcomes))

let run () =
  Bench_common.section
    "C1: chaos campaigns - re-stabilisation under time-varying fault \
     schedules";
  let jobs = Bench_common.default_jobs () in
  let metrics = Stdx.Metrics.create () in
  let results =
    List.map
      (fun s ->
        let (Algo.Spec.Packed spec) = s.packed in
        let cfg = config ~phase_rounds:s.phase_rounds ~jobs in
        let adversaries = Sim.Adversary.standard_suite () in
        let agg =
          Sim.Harness.Chaos.run ~metrics ~config:cfg ~spec ~adversaries ()
        in
        (s, cfg, agg))
      (subjects ())
  in
  let table =
    Stdx.Table.create
      [
        "algorithm"; "bound"; "runs"; "phases"; "failed"; "worst rec"; "p50";
        "p90";
      ]
  in
  List.iter
    (fun (s, _, agg) ->
      let open Sim.Harness.Chaos in
      Stdx.Table.add_row table
        [
          s.label;
          Stdx.Table.cell_int s.time_bound;
          Stdx.Table.cell_int (List.length agg.outcomes);
          Stdx.Table.cell_int agg.phase_verdicts;
          Stdx.Table.cell_int agg.phase_failures;
          (match agg.worst_recovery with
          | Some w -> string_of_int w
          | None -> "FAILED");
          (match agg.recovery_p50 with
          | Some p -> Printf.sprintf "%.0f" p
          | None -> "-");
          (match agg.recovery_p90 with
          | Some p -> Printf.sprintf "%.0f" p
          | None -> "-");
        ])
    results;
  Stdx.Table.print table;
  List.iter
    (fun (s, _, agg) ->
      let open Sim.Harness.Chaos in
      match agg.worst_recovery with
      | Some w when w <= s.time_bound ->
        Printf.printf "%s: worst recovery %d <= bound %d\n" s.label w
          s.time_bound
      | Some w ->
        Printf.printf "%s: WARNING worst recovery %d exceeds bound %d\n"
          s.label w s.time_bound
      | None ->
        Printf.printf "%s: %d phase(s) failed to re-stabilise\n" s.label
          agg.phase_failures)
    results;
  let oc = open_out json_path in
  Printf.fprintf oc
    "{\n\
    \  \"experiment\": \"chaos\",\n\
    \  \"subjects\": [\n\
     %s\n\
    \  ],\n\
    \  \"metrics\": %s\n\
     }\n"
    (String.concat ",\n" (List.map json_of_subject results))
    (Stdx.Metrics.to_json (Stdx.Metrics.snapshot metrics));
  close_out oc;
  Printf.printf "\n[%d subject record(s) written to %s]\n" (List.length results)
    json_path
