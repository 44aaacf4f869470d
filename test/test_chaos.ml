(* Tests for the chaos layer: Sim.Schedule descriptions, the
   schedule-executing engine (Engine.run), reset-at-perturbation
   detection (Online.reset), and Harness.Chaos campaigns. *)

let check = Alcotest.check
let case name f = Alcotest.test_case name `Quick f

let leader = Counting.Trivial.follow_leader ~n:4 ~c:5
let leader_f1 = Algo.Combinators.with_claimed_resilience leader ~f:1
let leader_f2 = Algo.Combinators.with_claimed_resilience leader ~f:2

let benign_phase duration =
  { Sim.Schedule.adversary = Sim.Adversary.benign (); faulty = []; duration }

(* ------------------------------------------------------------------ *)
(* Schedule: validation and random generation                           *)
(* ------------------------------------------------------------------ *)

let rejects label f =
  check Alcotest.bool label true
    (try
       ignore (f ());
       false
     with Invalid_argument _ -> true)

let test_schedule_validate_rejects () =
  let validate s = Sim.Schedule.validate ~spec:leader_f1 s in
  rejects "no phases" (fun () ->
      validate { Sim.Schedule.phases = []; events = [] });
  rejects "negative duration" (fun () ->
      validate
        {
          Sim.Schedule.phases = [ { (benign_phase 10) with duration = -1 } ];
          events = [];
        });
  rejects "duplicate faulty ids" (fun () ->
      validate
        {
          Sim.Schedule.phases = [ { (benign_phase 10) with faulty = [ 1; 1 ] } ];
          events = [];
        });
  rejects "faulty beyond resilience" (fun () ->
      validate
        {
          Sim.Schedule.phases =
            [ { (benign_phase 10) with faulty = [ 0; 2 ] } ];
          events = [];
        });
  rejects "event beyond horizon" (fun () ->
      validate
        {
          Sim.Schedule.phases = [ benign_phase 10 ];
          events = [ { Sim.Schedule.round = 10; victims = 1 } ];
        });
  rejects "negative victims" (fun () ->
      validate
        {
          Sim.Schedule.phases = [ benign_phase 10 ];
          events = [ { Sim.Schedule.round = 3; victims = -1 } ];
        })

let test_schedule_validate_normalises () =
  let s =
    Sim.Schedule.validate ~spec:leader_f2
      {
        Sim.Schedule.phases = [ { (benign_phase 20) with faulty = [ 3; 1 ] } ];
        events =
          [
            { Sim.Schedule.round = 15; victims = 1 };
            { Sim.Schedule.round = 2; victims = 2 };
          ];
      }
  in
  check (Alcotest.list Alcotest.int) "faulty sorted" [ 1; 3 ]
    (List.hd s.Sim.Schedule.phases).Sim.Schedule.faulty;
  check (Alcotest.list Alcotest.int) "events sorted by round" [ 2; 15 ]
    (List.map (fun e -> e.Sim.Schedule.round) s.Sim.Schedule.events);
  check Alcotest.int "total rounds" 20 (Sim.Schedule.total_rounds s)

let test_schedule_static () =
  let s =
    Sim.Schedule.static ~adversary:(Sim.Adversary.stuck ()) ~faulty:[ 2 ]
      ~rounds:77
  in
  check Alcotest.int "one phase" 1 (List.length s.Sim.Schedule.phases);
  check Alcotest.int "no events" 0 (List.length s.Sim.Schedule.events);
  check Alcotest.int "horizon = rounds" 77 (Sim.Schedule.total_rounds s)

let random_schedule ?(phases = 3) ?(events = 2) ?(event_margin = 0) seed =
  Sim.Schedule.random ~spec:leader_f2
    ~adversaries:(Sim.Adversary.standard_suite ())
    ~phases ~phase_rounds:50 ~events ~max_victims:2 ~event_margin ~seed ()

let test_schedule_random_deterministic () =
  check Alcotest.string "same seed, same schedule"
    (Sim.Schedule.describe (random_schedule 42))
    (Sim.Schedule.describe (random_schedule 42));
  check Alcotest.bool "different seeds differ" true
    (Sim.Schedule.describe (random_schedule 1)
    <> Sim.Schedule.describe (random_schedule 2))

let test_schedule_random_bounds () =
  List.iter
    (fun seed ->
      let s = random_schedule ~phases:4 ~events:3 seed in
      check Alcotest.int "phase count" 4 (List.length s.Sim.Schedule.phases);
      check Alcotest.int "event count" 3 (List.length s.Sim.Schedule.events);
      List.iter
        (fun (p : _ Sim.Schedule.phase) ->
          check Alcotest.bool "faulty within budget" true
            (List.length p.Sim.Schedule.faulty <= 2);
          check Alcotest.bool "duration in [50, 100)" true
            (p.Sim.Schedule.duration >= 50 && p.Sim.Schedule.duration < 100))
        s.Sim.Schedule.phases;
      let total = Sim.Schedule.total_rounds s in
      List.iter
        (fun (e : Sim.Schedule.event) ->
          check Alcotest.bool "event within horizon" true
            (e.Sim.Schedule.round >= 0 && e.Sim.Schedule.round < total);
          check Alcotest.bool "victims in [1, 2]" true
            (e.Sim.Schedule.victims >= 1 && e.Sim.Schedule.victims <= 2))
        s.Sim.Schedule.events)
    [ 1; 2; 3; 4; 5 ]

let test_schedule_random_event_margin () =
  let margin = 16 in
  List.iter
    (fun seed ->
      let s = random_schedule ~events:4 ~event_margin:margin seed in
      (* phase boundaries *)
      let bounds =
        List.fold_left
          (fun (start, acc) (p : _ Sim.Schedule.phase) ->
            let stop = start + p.Sim.Schedule.duration in
            (stop, (start, stop) :: acc))
          (0, []) s.Sim.Schedule.phases
        |> snd |> List.rev
      in
      List.iter
        (fun (e : Sim.Schedule.event) ->
          let start, stop =
            List.find
              (fun (start, stop) ->
                e.Sim.Schedule.round >= start && e.Sim.Schedule.round < stop)
              bounds
          in
          check Alcotest.bool
            (Printf.sprintf
               "event at %d leaves %d clean steps before phase end %d"
               e.Sim.Schedule.round margin stop)
            true
            (e.Sim.Schedule.round <= stop - 2 - margin
            || e.Sim.Schedule.round = start))
        s.Sim.Schedule.events)
    [ 1; 2; 3 ]

(* A phase shorter than margin + 2 cannot hold one perturbation plus
   [margin] clean steps, so [random] refuses it; at exactly margin + 2
   every event still lands inside its phase with the full margin after
   it. *)
let test_schedule_random_rejects_short_phases () =
  let margin = 16 in
  let gen phase_rounds =
    Sim.Schedule.random ~spec:leader_f2
      ~adversaries:(Sim.Adversary.standard_suite ())
      ~phases:3 ~phase_rounds ~events:6 ~max_victims:2 ~event_margin:margin
      ~seed:5 ()
  in
  rejects "phase_rounds = margin + 1" (fun () -> gen (margin + 1));
  rejects "phase_rounds = 1 with no margin" (fun () ->
      Sim.Schedule.random ~spec:leader_f2
        ~adversaries:(Sim.Adversary.standard_suite ())
        ~phase_rounds:1 ~seed:1 ());
  let s = gen (margin + 2) in
  let start = ref 0 in
  let bounds =
    List.map
      (fun (p : _ Sim.Schedule.phase) ->
        let b = (!start, !start + p.Sim.Schedule.duration) in
        start := snd b;
        b)
      s.Sim.Schedule.phases
  in
  List.iter
    (fun (e : Sim.Schedule.event) ->
      let r = e.Sim.Schedule.round in
      check Alcotest.bool
        (Printf.sprintf "event at %d fits its phase with the margin" r)
        true
        (List.exists (fun (a, b) -> a <= r && r <= b - 2 - margin) bounds))
    s.Sim.Schedule.events

(* ------------------------------------------------------------------ *)
(* Online.reset                                                         *)
(* ------------------------------------------------------------------ *)

let feed_counting det ~c ~from ~upto =
  for r = from to upto do
    Sim.Online.observe det ~round:r (Array.make 4 (r mod c))
  done

let test_online_reset_discards_evidence () =
  let det =
    Sim.Online.create ~c:4 ~correct:[ 0; 1; 2; 3 ] ~min_suffix:3 ()
  in
  feed_counting det ~c:4 ~from:0 ~upto:5;
  check Alcotest.bool "stabilised before reset" true
    (Sim.Online.stabilised det);
  Sim.Online.reset det;
  check Alcotest.bool "reset discards the verdict" false
    (Sim.Online.stabilised det);
  (* two more clean rows: suffix 6..7 is still too short *)
  feed_counting det ~c:4 ~from:6 ~upto:7;
  check Alcotest.bool "still gathering evidence" false
    (Sim.Online.stabilised det);
  feed_counting det ~c:4 ~from:8 ~upto:9;
  check Alcotest.bool "re-stabilises on the post-reset suffix" true
    (match Sim.Online.verdict det with
    | Sim.Online.Stabilized s -> s = 6
    | Sim.Online.Not_stabilized -> false)

let test_online_reset_swaps_correct () =
  let det = Sim.Online.create ~c:4 ~correct:[ 0; 1 ] ~min_suffix:2 () in
  (* node 1 outputs garbage: never stabilises with correct = {0, 1} *)
  for r = 0 to 5 do
    Sim.Online.observe det ~round:r [| r mod 4; 3; 0; 0 |]
  done;
  check Alcotest.bool "garbage column blocks the verdict" false
    (Sim.Online.stabilised det);
  Sim.Online.reset ~correct:[ 0 ] det;
  for r = 6 to 9 do
    Sim.Online.observe det ~round:r [| r mod 4; 3; 0; 0 |]
  done;
  check Alcotest.bool "restricted correct set stabilises" true
    (match Sim.Online.verdict det with
    | Sim.Online.Stabilized s -> s = 6
    | Sim.Online.Not_stabilized -> false)

(* ------------------------------------------------------------------ *)
(* Engine.run over multi-phase schedules                                *)
(* ------------------------------------------------------------------ *)

(* The one-phase, event-free Schedule.static is the paper's static fault
   model: its single phase report must describe the whole run (entry
   perturbation at round 0, the outcome's own verdict and recovery), and
   in both modes the engine's final states and recent output window must
   be the full trace's rows at the round it stopped. *)
let assert_static_differential ~label ~rounds (spec : int Algo.Spec.t) =
  let fault_sets = [ []; [ 0 ] ] in
  List.iter
    (fun adversary ->
      List.iter
        (fun faulty ->
          List.iter
            (fun seed ->
              let run =
                Sim.Network.run ~spec ~adversary ~faulty ~rounds ~seed ()
              in
              List.iter
                (fun mode ->
                  let ctx =
                    Printf.sprintf "%s/%s/faulty=[%s]/seed=%d/%s" label
                      (Sim.Adversary.name adversary)
                      (String.concat ";" (List.map string_of_int faulty))
                      seed
                      (match mode with
                      | Sim.Engine.Streaming -> "streaming"
                      | Sim.Engine.Full_horizon -> "full-horizon")
                  in
                  let o =
                    Sim.Engine.run ~mode ~spec
                      ~schedule:
                        (Sim.Schedule.static ~adversary ~faulty ~rounds)
                      ~seed ()
                  in
                  let t = o.Sim.Engine.rounds_simulated in
                  check Alcotest.int (ctx ^ ": horizon") rounds
                    o.Sim.Engine.horizon;
                  check
                    (Alcotest.array Alcotest.int)
                    (ctx ^ ": final states are the trace row")
                    run.Sim.Network.states.(t) o.Sim.Engine.final_states;
                  List.iter
                    (fun (r, row) ->
                      check
                        (Alcotest.array Alcotest.int)
                        (Printf.sprintf "%s: recent output row %d" ctx r)
                        run.Sim.Network.outputs.(r) row)
                    o.Sim.Engine.recent_outputs;
                  match o.Sim.Engine.phases with
                  | [ p ] ->
                      check Alcotest.int (ctx ^ ": phase index") 0
                        p.Sim.Engine.phase;
                      check Alcotest.string (ctx ^ ": adversary")
                        (Sim.Adversary.name adversary) p.Sim.Engine.adversary;
                      check (Alcotest.list Alcotest.int) (ctx ^ ": faulty")
                        faulty p.Sim.Engine.faulty;
                      check Alcotest.int (ctx ^ ": starts at 0") 0
                        p.Sim.Engine.start_round;
                      check Alcotest.int (ctx ^ ": ends where the run did") t
                        p.Sim.Engine.end_round;
                      check Alcotest.int (ctx ^ ": only the entry perturbation")
                        1 p.Sim.Engine.perturbations;
                      check Alcotest.int (ctx ^ ": perturbed at 0") 0
                        p.Sim.Engine.last_perturbation;
                      check Alcotest.bool (ctx ^ ": phase verdict is the run's")
                        true
                        (Sim.Online.equal_verdict p.Sim.Engine.verdict
                           o.Sim.Engine.verdict);
                      check
                        (Alcotest.option Alcotest.int)
                        (ctx ^ ": recovery is the stabilisation round")
                        (match o.Sim.Engine.verdict with
                        | Sim.Online.Stabilized s -> Some s
                        | Sim.Online.Not_stabilized -> None)
                        p.Sim.Engine.recovery
                  | ps ->
                      Alcotest.failf "%s: %d phase reports, expected 1" ctx
                        (List.length ps))
                [ Sim.Engine.Streaming; Sim.Engine.Full_horizon ])
            [ 1; 2; 3 ])
        fault_sets)
    [
      Sim.Adversary.stuck ();
      Sim.Adversary.split_brain ();
      Sim.Adversary.random_equivocate ();
    ]

let test_schedule_static_differential_leader () =
  assert_static_differential ~label:"follow-leader" ~rounds:120 leader_f1

let test_schedule_static_differential_rand () =
  assert_static_differential ~label:"rand-counter" ~rounds:400
    (Counting.Rand_counter.make ~n:4 ~f:1)

(* The trace hook is called once per observed row, in round order, from
   round 0 up to the round the run stopped at — also when a streaming
   run exits early. *)
let test_schedule_trace_sees_every_round () =
  let seen = ref [] in
  let o =
    Sim.Engine.run
      ~trace:(fun ~round ~states:_ ~outputs:_ -> seen := round :: !seen)
      ~spec:leader
      ~schedule:
        (Sim.Schedule.static ~adversary:(Sim.Adversary.benign ()) ~faulty:[]
           ~rounds:1000)
      ~seed:1 ()
  in
  check Alcotest.bool "streaming run exited early" true o.Sim.Engine.early_exit;
  check (Alcotest.list Alcotest.int) "rounds 0 .. rounds_simulated"
    (List.init (o.Sim.Engine.rounds_simulated + 1) Fun.id)
    (List.rev !seen)

let test_schedule_phase_reports () =
  let schedule =
    {
      Sim.Schedule.phases =
        [
          benign_phase 60;
          {
            Sim.Schedule.adversary = Sim.Adversary.stuck ();
            faulty = [ 1 ];
            duration = 60;
          };
          benign_phase 60;
        ];
      events = [];
    }
  in
  let o =
    Sim.Engine.run ~mode:Sim.Engine.Full_horizon ~spec:leader_f1
      ~schedule ~seed:3 ()
  in
  check Alcotest.int "three reports" 3 (List.length o.Sim.Engine.phases);
  check Alcotest.int "simulated the whole horizon" 180
    o.Sim.Engine.rounds_simulated;
  List.iteri
    (fun i (r : Sim.Engine.phase_report) ->
      check Alcotest.int (Printf.sprintf "phase %d index" i) i
        r.Sim.Engine.phase;
      check Alcotest.int
        (Printf.sprintf "phase %d start" i)
        (60 * i) r.Sim.Engine.start_round;
      check Alcotest.int
        (Printf.sprintf "phase %d end" i)
        (60 * (i + 1))
        r.Sim.Engine.end_round;
      check Alcotest.int
        (Printf.sprintf "phase %d perturbations" i)
        1 r.Sim.Engine.perturbations;
      check Alcotest.int
        (Printf.sprintf "phase %d last perturbation" i)
        (60 * i) r.Sim.Engine.last_perturbation;
      (* follow-leader tolerates a stuck non-leader node: every phase
         must re-stabilise, and the recovery is relative to the phase *)
      check Alcotest.bool
        (Printf.sprintf "phase %d recovered" i)
        true
        (match r.Sim.Engine.recovery with Some t -> t >= 0 | None -> false))
    o.Sim.Engine.phases;
  check
    (Alcotest.list Alcotest.string)
    "adversaries recorded"
    [ "benign"; "stuck"; "benign" ]
    (List.map
       (fun (r : Sim.Engine.phase_report) -> r.Sim.Engine.adversary)
       o.Sim.Engine.phases);
  check
    (Alcotest.list (Alcotest.list Alcotest.int))
    "faulty sets recorded"
    [ []; [ 1 ]; [] ]
    (List.map
       (fun (r : Sim.Engine.phase_report) -> r.Sim.Engine.faulty)
       o.Sim.Engine.phases)

let test_schedule_transient_event () =
  let phases = [ benign_phase 200 ] in
  let with_event =
    { Sim.Schedule.phases; events = [ { Sim.Schedule.round = 50; victims = 4 } ] }
  in
  let without_event = { Sim.Schedule.phases; events = [] } in
  let trace_of schedule =
    let rows = Hashtbl.create 256 in
    let trace ~round ~states:_ ~outputs =
      Hashtbl.replace rows round (Array.copy outputs)
    in
    let o =
      Sim.Engine.run ~trace ~mode:Sim.Engine.Full_horizon ~spec:leader
        ~schedule ~seed:1 ()
    in
    (o, rows)
  in
  let o, rows = trace_of with_event in
  let o_ref, rows_ref = trace_of without_event in
  (* the corruption stream is separate: everything before the event is
     byte-identical to the unperturbed run *)
  for r = 0 to 49 do
    check
      (Alcotest.array Alcotest.int)
      (Printf.sprintf "row %d identical before the event" r)
      (Hashtbl.find rows_ref r) (Hashtbl.find rows r)
  done;
  check Alcotest.bool "corruption visible at round 50" true
    (Hashtbl.find rows_ref 50 <> Hashtbl.find rows 50);
  (match o.Sim.Engine.phases with
  | [ r ] ->
    check Alcotest.int "entry + event perturbations" 2
      r.Sim.Engine.perturbations;
    check Alcotest.int "last perturbation at the event" 50
      r.Sim.Engine.last_perturbation;
    (match r.Sim.Engine.recovery with
    | Some t ->
      check Alcotest.bool "recovery measured from the event" true (t >= 0);
      check Alcotest.bool "stabilisation point after the event" true
        (match r.Sim.Engine.verdict with
        | Sim.Online.Stabilized s -> s >= 50 && s = 50 + t
        | Sim.Online.Not_stabilized -> false)
    | None -> Alcotest.fail "follow-leader must recover from a reboot")
  | reports ->
    Alcotest.failf "expected one phase report, got %d" (List.length reports));
  (* without the event, the single phase stabilises from its start *)
  match o_ref.Sim.Engine.phases with
  | [ r ] ->
    check Alcotest.int "unperturbed run has entry perturbation only" 1
      r.Sim.Engine.perturbations
  | _ -> Alcotest.fail "expected one phase report"

let test_schedule_streaming_last_phase_only () =
  let schedule =
    { Sim.Schedule.phases = [ benign_phase 100; benign_phase 100 ]; events = [] }
  in
  let o = Sim.Engine.run ~spec:leader ~schedule ~seed:1 () in
  (* both phases stabilise almost immediately, but the early exit may
     only trigger once the final phase is reached *)
  check Alcotest.bool "no early exit before the final phase" true
    (o.Sim.Engine.rounds_simulated >= 100);
  check Alcotest.bool "early exit inside the final phase" true
    (o.Sim.Engine.early_exit
    && o.Sim.Engine.rounds_simulated < Sim.Schedule.total_rounds schedule);
  match o.Sim.Engine.phases with
  | [ p0; p1 ] ->
    check Alcotest.int "phase 0 ran to its boundary" 100
      p0.Sim.Engine.end_round;
    check Alcotest.bool "both phases recovered" true
      (p0.Sim.Engine.recovery <> None && p1.Sim.Engine.recovery <> None)
  | reports ->
    Alcotest.failf "expected two phase reports, got %d" (List.length reports)

let test_schedule_run_deterministic () =
  let schedule =
    {
      Sim.Schedule.phases =
        [
          {
            Sim.Schedule.adversary = Sim.Adversary.split_brain ();
            faulty = [ 2 ];
            duration = 80;
          };
          benign_phase 80;
        ];
      events = [ { Sim.Schedule.round = 100; victims = 2 } ];
    }
  in
  let go () =
    Sim.Engine.run ~mode:Sim.Engine.Full_horizon ~spec:leader_f1
      ~schedule ~seed:9 ()
  in
  check Alcotest.bool "same seed, same schedule outcome" true (go () = go ())

(* ------------------------------------------------------------------ *)
(* Harness.Chaos campaigns                                              *)
(* ------------------------------------------------------------------ *)

let parallel_jobs =
  match Sys.getenv_opt "REPRO_JOBS" with
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some j when j >= 1 -> j
    | _ -> 8)
  | None -> 8

let chaos_config ?(jobs = 1) () =
  Sim.Harness.Chaos.Config.(
    default |> with_campaigns 2 |> with_phases 2 |> with_phase_rounds 60
    |> with_events 1 |> with_seeds [ 1; 2 ] |> with_jobs jobs)

let test_chaos_recovers_and_aggregates () =
  let agg =
    Sim.Harness.Chaos.run ~config:(chaos_config ()) ~spec:leader
      ~adversaries:(Sim.Adversary.standard_suite ())
      ()
  in
  let open Sim.Harness.Chaos in
  check Alcotest.int "campaigns x seeds runs" 4 (List.length agg.outcomes);
  check Alcotest.int "two phase verdicts per run" 8 agg.phase_verdicts;
  (* f = 0: random schedules degenerate to transient corruption only,
     and follow-leader must recover from every perturbation *)
  check Alcotest.bool "all phases recovered" true agg.all_recovered;
  check Alcotest.int "no failures" 0 agg.phase_failures;
  check Alcotest.int "one recovery per phase verdict" agg.phase_verdicts
    (List.length agg.recoveries);
  check Alcotest.bool "worst recovery present" true
    (agg.worst_recovery <> None);
  check Alcotest.bool "percentiles present" true
    (agg.recovery_p50 <> None && agg.recovery_p90 <> None);
  check Alcotest.bool "percentiles below the worst" true
    (match (agg.worst_recovery, agg.recovery_p90) with
    | Some w, Some p90 -> p90 <= float_of_int w
    | _ -> false);
  List.iter
    (fun (o : outcome) ->
      check Alcotest.bool "schedule description recorded" true
        (String.length o.schedule > 0);
      check Alcotest.bool "rounds simulated within horizon" true
        (o.rounds_simulated <= o.horizon))
    agg.outcomes

(* Chaos campaigns are reproducible from their seed at any jobs count.
   Campaign horizons are random, so cost-sorted claiming does genuine
   LPT reordering here — the aggregates must not notice. *)
let test_chaos_jobs_determinism () =
  let at jobs =
    Sim.Harness.Chaos.run ~config:(chaos_config ~jobs ())
      ~spec:(Counting.Rand_counter.make ~n:4 ~f:1)
      ~adversaries:(Sim.Adversary.standard_suite ())
      ()
  in
  let seq = at 1 in
  List.iter
    (fun jobs ->
      check Alcotest.bool
        (Printf.sprintf "aggregates identical at jobs=%d" jobs)
        true
        (at jobs = seq))
    [ 2; parallel_jobs ]

let test_chaos_rejects_bad_config () =
  let boom config =
    ignore
      (Sim.Harness.Chaos.run ~config ~spec:leader
         ~adversaries:(Sim.Adversary.standard_suite ())
         ())
  in
  rejects "campaigns < 1" (fun () ->
      boom Sim.Harness.Chaos.Config.(default |> with_campaigns 0));
  rejects "empty seeds" (fun () ->
      boom Sim.Harness.Chaos.Config.(default |> with_seeds []));
  rejects "empty adversary pool" (fun () ->
      ignore
        (Sim.Harness.Chaos.run ~config:(chaos_config ()) ~spec:leader
           ~adversaries:[] ()))

(* Chaos passes its min-suffix request (default max (2c) 16 = 16 here)
   as the event margin, so a phase that could not certify a recovery is
   refused before any run. *)
let test_chaos_rejects_short_phases () =
  let go config =
    Sim.Harness.Chaos.run ~config ~spec:leader
      ~adversaries:(Sim.Adversary.standard_suite ())
      ()
  in
  let base = Sim.Harness.Chaos.Config.(chaos_config () |> with_campaigns 1) in
  rejects "phase_rounds below the default min-suffix + 2" (fun () ->
      go (Sim.Harness.Chaos.Config.with_phase_rounds 17 base));
  rejects "phase_rounds 1" (fun () ->
      go (Sim.Harness.Chaos.Config.with_phase_rounds 1 base));
  rejects "phase_rounds below an explicit min-suffix + 2" (fun () ->
      go Sim.Harness.Chaos.Config.(base |> with_min_suffix 8 |> with_phase_rounds 9));
  let agg =
    go Sim.Harness.Chaos.Config.(base |> with_min_suffix 8 |> with_phase_rounds 10)
  in
  check Alcotest.int "phase_rounds = min-suffix + 2 runs" 2
    (List.length agg.Sim.Harness.Chaos.outcomes)

let test_chaos_pp_smoke () =
  let agg =
    Sim.Harness.Chaos.run ~config:(chaos_config ()) ~spec:leader
      ~adversaries:[ Sim.Adversary.benign () ]
      ()
  in
  let s = Format.asprintf "%a" Sim.Harness.Chaos.pp_aggregate agg in
  check Alcotest.bool "pp mentions the run count" true
    (Astring.String.is_infix ~affix:"4 runs" s)

let suite =
  [
    ( "sim.schedule",
      [
        case "validate rejects bad schedules" test_schedule_validate_rejects;
        case "validate normalises" test_schedule_validate_normalises;
        case "static schedule" test_schedule_static;
        case "random generation is deterministic"
          test_schedule_random_deterministic;
        case "random generation respects bounds" test_schedule_random_bounds;
        case "random generation honours event margin"
          test_schedule_random_event_margin;
        case "random generation rejects phases shorter than margin + 2"
          test_schedule_random_rejects_short_phases;
      ] );
    ( "sim.online.reset",
      [
        case "reset discards evidence" test_online_reset_discards_evidence;
        case "reset swaps the correct set" test_online_reset_swaps_correct;
      ] );
    ( "sim.engine.schedule",
      [
        case "static differential: follow-leader"
          test_schedule_static_differential_leader;
        case "static differential: rand-counter"
          test_schedule_static_differential_rand;
        case "trace hook sees every round"
          test_schedule_trace_sees_every_round;
        case "phase reports" test_schedule_phase_reports;
        case "transient corruption event" test_schedule_transient_event;
        case "streaming exits in the last phase only"
          test_schedule_streaming_last_phase_only;
        case "deterministic from the seed" test_schedule_run_deterministic;
      ] );
    ( "sim.harness.chaos",
      [
        case "campaigns recover and aggregate"
          test_chaos_recovers_and_aggregates;
        case "jobs determinism" test_chaos_jobs_determinism;
        case "rejects bad config" test_chaos_rejects_bad_config;
        case "rejects phases too short to certify"
          test_chaos_rejects_short_phases;
        case "pp smoke" test_chaos_pp_smoke;
      ] );
  ]
