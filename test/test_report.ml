(* Sim.Report: the offline trace analysis that [countctl report]
   renders. Its phase rows must be exactly the engine's own phase
   reports, and no event stream, however damaged, may make it raise. *)

let check = Alcotest.check
let case name f = Alcotest.test_case name `Quick f

let parallel_jobs =
  match Sys.getenv_opt "REPRO_JOBS" with
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some j when j >= 1 -> j
    | _ -> 8)
  | None -> 8

let phase_report =
  Alcotest.testable
    (fun ppf (p : Sim.Engine.phase_report) ->
      Fmt.pf ppf "phase %d %s [%a] %d..%d pert %d@%d %a rec %a" p.phase
        p.adversary
        Fmt.(list ~sep:semi int)
        p.faulty p.start_round p.end_round p.perturbations
        p.last_perturbation Sim.Online.pp_verdict p.verdict
        Fmt.(option ~none:(any "-") int)
        p.recovery)
    ( = )

let chaos_config =
  Sim.Harness.Chaos.Config.(
    default |> with_campaigns 3 |> with_phases 3 |> with_phase_rounds 80
    |> with_events 3 |> with_seeds [ 1; 2 ])

(* Run a traced campaign at jobs 1 and REPRO_JOBS; cell [i]'s rows of
   the analysis must equal outcome [i]'s [phases]. *)
let check_analysis_equals_outcomes name ~spec =
  List.iter
    (fun jobs ->
      let tr = Sim.Trace.memory () in
      let agg =
        Sim.Harness.Chaos.run ~trace:tr
          ~config:(Sim.Harness.Chaos.Config.with_jobs jobs chaos_config)
          ~spec
          ~adversaries:(Sim.Adversary.standard_suite ())
          ()
      in
      let r = Sim.Report.analyse (Sim.Trace.events tr) in
      List.iteri
        (fun i (o : Sim.Harness.Chaos.outcome) ->
          check
            (Alcotest.list phase_report)
            (Printf.sprintf "%s, jobs=%d: cell %d" name jobs i)
            o.phases
            (List.filter_map
               (fun (cell, p) -> if cell = i then Some p else None)
               r.phases))
        agg.outcomes;
      check Alcotest.int
        (Printf.sprintf "%s, jobs=%d: one row per phase" name jobs)
        agg.phase_verdicts (List.length r.phases);
      check Alcotest.int
        (Printf.sprintf "%s, jobs=%d: recovered" name jobs)
        (agg.phase_verdicts - agg.phase_failures)
        r.recovered)
    (List.sort_uniq compare [ 1; parallel_jobs ])

let test_analysis_equals_outcomes () =
  (* follow-leader claiming f = 1 tolerates no fault, so its phases
     fail as well as recover; the Corollary 1 tower recovers. *)
  check_analysis_equals_outcomes "leader:4:5 f=1"
    ~spec:
      (Algo.Combinators.with_claimed_resilience
         (Counting.Trivial.follow_leader ~n:4 ~c:5)
         ~f:1);
  let tower =
    Counting.Plan.plan_tower_exn ~target_c:2
      (Counting.Plan.corollary1_levels ~f:1)
  in
  let (Algo.Spec.Packed spec) = Counting.Build.tower tower in
  check_analysis_equals_outcomes "A(4,1)" ~spec

(* Damaged streams: a real campaign trace, cut, salted with arbitrary
   events and shuffled. *)

let real_events =
  lazy
    (let tr = Sim.Trace.memory () in
     ignore
       (Sim.Harness.Chaos.run ~trace:tr ~spans:true ~config:chaos_config
          ~spec:
            (Algo.Combinators.with_claimed_resilience
               (Counting.Trivial.follow_leader ~n:4 ~c:5)
               ~f:1)
          ~adversaries:(Sim.Adversary.standard_suite ())
          ());
     Sim.Trace.events tr)

let arbitrary_event : Sim.Trace.event QCheck.Gen.t =
  let open QCheck.Gen in
  let small = int_range (-3) 40 in
  let ids = small_list small in
  let name =
    oneofl [ ""; "engine.step"; "pool.busy"; "pool.claim"; "pool.idle" ]
  in
  oneof
    [
      map2
        (fun n time_bound ->
          Sim.Trace.Meta { label = "m"; n; f = 1; c = 2; time_bound })
        small (opt small);
      map2 (fun cell label -> Sim.Trace.Cell_start { cell; label }) small name;
      map3
        (fun round phase faulty ->
          Sim.Trace.Phase_start { round; phase; adversary = "x"; faulty })
        small small ids;
      map
        (fun (round, phase, requested, victims) ->
          Sim.Trace.Corruption { round; phase; requested; victims })
        (quad small small small ids);
      map2
        (fun round phase -> Sim.Trace.Detector_reset { round; phase })
        small small;
      map
        (fun (round, phase, stabilized, recovery) ->
          Sim.Trace.Verdict { round; phase; stabilized; recovery })
        (quad small small (opt small) (opt small));
      map3
        (fun trial score hit ->
          Sim.Trace.Hunt_trial { trial; seed = 0; score; hit })
        small float bool;
      map2
        (fun steps kept ->
          Sim.Trace.Hunt_shrink
            { trial = 0; steps; kept; size = 1; score = 0.0 })
        small small;
      map3
        (fun name count wall_s -> Sim.Trace.Span { name; count; wall_s })
        name small float;
      map2 (fun cell wall_s -> Sim.Trace.Cell_end { cell; wall_s }) small float;
    ]

let damaged_stream =
  let open QCheck.Gen in
  let gen =
    int_bound 200 >>= fun cut ->
    small_list arbitrary_event >>= fun salt ->
    bool >>= fun shuffle ->
    let real = List.filteri (fun i _ -> i < cut) (Lazy.force real_events) in
    let events = real @ salt in
    if shuffle then shuffle_l events else return events
  in
  QCheck.make
    ~print:(fun evs ->
      String.concat "\n" (List.map (Fmt.to_to_string Sim.Trace.pp_event) evs))
    gen

let test_analyse_is_total =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:300 ~name:"analyse never raises on damaged streams"
       damaged_stream (fun events ->
         let count p = List.length (List.filter p events) in
         match Sim.Report.analyse events with
         | exception e ->
           QCheck.Test.fail_reportf "raised %s" (Printexc.to_string e)
         | r ->
           ignore (Sim.Report.to_json r);
           List.length r.phases
           = count (function Sim.Trace.Phase_start _ -> true | _ -> false)
           && List.length r.corruptions
              = count (function Sim.Trace.Corruption _ -> true | _ -> false)
           && List.length r.cells
              = count (function Sim.Trace.Cell_end _ -> true | _ -> false)))

let suite =
  [
    ( "sim.report",
      [
        case "analysis equals the engine's phase reports"
          test_analysis_equals_outcomes;
        test_analyse_is_total;
      ] );
  ]
