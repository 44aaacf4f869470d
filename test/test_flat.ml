(* Certification of the flat (packed state vector) engine path.

   Every test here runs the same execution twice — once with the spec's
   codec (the flat path) and once with the codec stripped (the boxed
   per-node path, [{ spec with codec = None }]) — and demands the
   outcomes be bit-identical: verdicts, rounds simulated, final states,
   phase reports and structured trace events. Also pins the end_round
   reporting convention and the surfacing of clamped transient events
   (the two bugfixes riding along with the flat engine). *)

let check = Alcotest.check
let case name f = Alcotest.test_case name `Quick f

let leader = Counting.Trivial.follow_leader ~n:4 ~c:5
let leader_f1 = Algo.Combinators.with_claimed_resilience leader ~f:1
let leader_f2 = Algo.Combinators.with_claimed_resilience leader ~f:2

let a41 () =
  (Counting.Boost.construct
     ~inner:(Counting.Trivial.single ~c:2304)
     ~k:4 ~big_f:1 ~big_c:2)
    .Counting.Boost.spec

let boxed (spec : 's Algo.Spec.t) = { spec with Algo.Spec.codec = None }

let parallel_jobs =
  match Sys.getenv_opt "REPRO_JOBS" with
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some j when j >= 1 -> j
    | _ -> 4)
  | None -> 4

(* ------------------------------------------------------------------ *)
(* Static differential: Engine.run flat vs boxed                        *)
(* ------------------------------------------------------------------ *)

let assert_outcomes_equal ~ctx (spec : 's Algo.Spec.t)
    (flat : 's Sim.Engine.outcome) (bxd : 's Sim.Engine.outcome) =
  check Alcotest.bool (ctx ^ ": same verdict") true
    (Sim.Online.equal_verdict flat.Sim.Engine.verdict bxd.Sim.Engine.verdict);
  check Alcotest.int (ctx ^ ": same rounds_simulated")
    bxd.Sim.Engine.rounds_simulated flat.Sim.Engine.rounds_simulated;
  check Alcotest.bool (ctx ^ ": same early_exit") bxd.Sim.Engine.early_exit
    flat.Sim.Engine.early_exit;
  check Alcotest.bool (ctx ^ ": same final states") true
    (Array.for_all2 spec.Algo.Spec.equal_state flat.Sim.Engine.final_states
       bxd.Sim.Engine.final_states);
  check Alcotest.bool (ctx ^ ": same recent outputs") true
    (flat.Sim.Engine.recent_outputs = bxd.Sim.Engine.recent_outputs)

let assert_static_differential ~label ~rounds ?(fault_sets = [ []; [ 0 ] ])
    ?(seeds = [ 1; 2 ]) (spec : 's Algo.Spec.t) =
  check Alcotest.bool (label ^ ": spec carries a codec") true
    (spec.Algo.Spec.codec <> None);
  let adversaries =
    Sim.Adversary.greedy_confusion ~pool:8 ()
    :: Sim.Adversary.standard_suite ()
  in
  List.iter
    (fun adversary ->
      List.iter
        (fun faulty ->
          List.iter
            (fun seed ->
              List.iter
                (fun mode ->
                  let ctx =
                    Printf.sprintf "%s/%s/faulty=[%s]/seed=%d" label
                      (Sim.Adversary.name adversary)
                      (String.concat ";" (List.map string_of_int faulty))
                      seed
                  in
                  let go sp =
                    Sim.Engine.run ~mode ~spec:sp ~adversary ~faulty ~rounds
                      ~seed ()
                  in
                  assert_outcomes_equal ~ctx spec (go spec) (go (boxed spec)))
                [ Sim.Engine.Streaming; Sim.Engine.Full_horizon ])
            seeds)
        fault_sets)
    adversaries

let test_static_differential_leader () =
  assert_static_differential ~label:"follow-leader" ~rounds:120 leader_f1

(* Two faulty senders, so crafted columns from both feed every view. *)
let test_static_differential_leader_f2 () =
  assert_static_differential ~label:"follow-leader-f2" ~rounds:120
    ~fault_sets:[ [ 0 ]; [ 0; 2 ] ] ~seeds:[ 1 ] leader_f2

let test_static_differential_rand () =
  assert_static_differential ~label:"rand-counter" ~rounds:400
    (Counting.Rand_counter.make ~n:4 ~f:1)

let test_static_differential_boost () =
  assert_static_differential ~label:"A(4,1)" ~rounds:150 ~seeds:[ 1 ]
    (a41 ())

(* The derived-codec path (generic kernel over [all_states]) must be
   just as bit-identical as the hand-written kernels. *)
let test_static_differential_derived () =
  let derived = Algo.Spec.with_derived_codec (boxed leader_f1) in
  assert_static_differential ~label:"derived-codec" ~rounds:120 ~seeds:[ 1 ]
    derived

(* ------------------------------------------------------------------ *)
(* Schedule differential: phase reports and trace events too            *)
(* ------------------------------------------------------------------ *)

let assert_schedule_differential ~ctx (spec : 's Algo.Spec.t) ~schedule ~seed
    ~mode =
  let go sp =
    let tracer = Sim.Trace.memory ~level:Sim.Trace.Rounds () in
    let o = Sim.Engine.run_schedule ~tracer ~mode ~spec:sp ~schedule ~seed () in
    (o, Sim.Trace.events tracer)
  in
  let flat, flat_events = go spec in
  let bxd, boxed_events = go (boxed spec) in
  check Alcotest.bool (ctx ^ ": same phase reports") true
    (flat.Sim.Engine.phases = bxd.Sim.Engine.phases);
  check Alcotest.bool (ctx ^ ": same verdict") true
    (Sim.Online.equal_verdict flat.Sim.Engine.verdict bxd.Sim.Engine.verdict);
  check Alcotest.int (ctx ^ ": same rounds_simulated")
    bxd.Sim.Engine.rounds_simulated flat.Sim.Engine.rounds_simulated;
  check Alcotest.bool (ctx ^ ": same early_exit") bxd.Sim.Engine.early_exit
    flat.Sim.Engine.early_exit;
  check Alcotest.bool (ctx ^ ": same final states") true
    (Array.for_all2 spec.Algo.Spec.equal_state flat.Sim.Engine.final_states
       bxd.Sim.Engine.final_states);
  check Alcotest.bool (ctx ^ ": same recent outputs") true
    (flat.Sim.Engine.recent_outputs = bxd.Sim.Engine.recent_outputs);
  check Alcotest.int
    (ctx ^ ": same trace length")
    (List.length boxed_events) (List.length flat_events);
  List.iteri
    (fun i (fe, be) ->
      check Alcotest.bool
        (Format.asprintf "%s: trace event %d (%a)" ctx i Sim.Trace.pp_event be)
        true
        (Sim.Trace.equal_event fe be))
    (List.combine flat_events boxed_events)

(* Random chaos schedules: phase changes, transient corruption, both
   engine modes — the flat path must reproduce the whole event stream. *)
let test_schedule_differential_random () =
  List.iter
    (fun seed ->
      let schedule =
        Sim.Schedule.random ~spec:leader_f2
          ~adversaries:(Sim.Adversary.standard_suite ())
          ~phases:3 ~phase_rounds:50 ~events:2 ~max_victims:2 ~seed ()
      in
      List.iter
        (fun mode ->
          let ctx = Printf.sprintf "random-schedule/seed=%d" seed in
          assert_schedule_differential ~ctx leader_f2 ~schedule ~seed ~mode)
        [ Sim.Engine.Streaming; Sim.Engine.Full_horizon ])
    [ 1; 2; 3 ]

let test_schedule_differential_boost () =
  let spec = a41 () in
  let schedule =
    {
      Sim.Schedule.phases =
        [
          { Sim.Schedule.adversary = Sim.Adversary.benign (); faulty = [];
            duration = 60 };
          { Sim.Schedule.adversary = Sim.Adversary.split_brain ();
            faulty = [ 2 ]; duration = 60 };
          { Sim.Schedule.adversary = Sim.Adversary.stuck (); faulty = [ 0 ];
            duration = 60 };
        ];
      events = [ { Sim.Schedule.round = 30; victims = 2 } ];
    }
  in
  assert_schedule_differential ~ctx:"A(4,1) schedule" spec ~schedule ~seed:5
    ~mode:Sim.Engine.Full_horizon

(* Whole chaos campaigns — run through the parallel harness at the
   REPRO_JOBS worker count — aggregate identically on both paths. *)
let test_chaos_campaign_differential () =
  let config =
    Sim.Harness.Chaos.Config.(
      default |> with_campaigns 2 |> with_phases 2 |> with_phase_rounds 60
      |> with_events 1 |> with_seeds [ 1; 2 ] |> with_jobs parallel_jobs)
  in
  let go sp =
    Sim.Harness.Chaos.run ~config ~spec:sp
      ~adversaries:(Sim.Adversary.standard_suite ())
      ()
  in
  check Alcotest.bool
    (Printf.sprintf "flat and boxed campaigns agree at jobs=%d" parallel_jobs)
    true
    (go leader_f2 = go (boxed leader_f2))

(* Every phase builds its own crafter on both representations: one phase
   per strategy (the lookahead included), and one strategy value run in
   two consecutive phases, whose history must restart at the boundary. *)
let test_schedule_differential_every_strategy () =
  let spec = a41 () in
  let strategies =
    Sim.Adversary.greedy_confusion ~pool:2 ()
    :: Sim.Adversary.standard_suite ()
  in
  let stale = Sim.Adversary.stale ~delay:3 () in
  let phases =
    List.mapi
      (fun i adversary ->
        { Sim.Schedule.adversary; faulty = [ i mod 4 ]; duration = 25 })
      (strategies @ [ stale; stale ])
  in
  let schedule =
    {
      Sim.Schedule.phases;
      events =
        [
          { Sim.Schedule.round = 40; victims = 2 };
          { Sim.Schedule.round = 160; victims = 1 };
        ];
    }
  in
  assert_schedule_differential ~ctx:"A(4,1) every strategy" spec ~schedule
    ~seed:3 ~mode:Sim.Engine.Full_horizon

(* The lookahead kernel inside whole campaigns, at REPRO_JOBS. *)
let test_chaos_campaign_differential_greedy () =
  let config =
    Sim.Harness.Chaos.Config.(
      default |> with_campaigns 2 |> with_phases 2 |> with_phase_rounds 60
      |> with_events 1 |> with_seeds [ 1; 2 ] |> with_jobs parallel_jobs)
  in
  let go sp =
    Sim.Harness.Chaos.run ~config ~spec:sp
      ~adversaries:
        [ Sim.Adversary.greedy_confusion ~pool:2 (); Sim.Adversary.split_brain () ]
      ()
  in
  check Alcotest.bool
    (Printf.sprintf "flat and boxed greedy campaigns agree at jobs=%d"
       parallel_jobs)
    true
    (go leader_f2 = go (boxed leader_f2))

(* Why the boxed representation stays: a boost level whose state codes
   would pass 63 bits drops its codec, so the tower has no flat path at
   all. This A(4,1) over a huge trivial counter has 64 state bits; it
   must still run, boxed, under a crafting adversary. *)
let test_codecless_tower_runs_boxed () =
  let spec =
    (Counting.Boost.construct
       ~inner:(Counting.Trivial.single ~c:(2304 * (1 lsl 49)))
       ~k:4 ~big_f:1 ~big_c:2)
      .Counting.Boost.spec
  in
  check Alcotest.int "64 state bits" 64 spec.Algo.Spec.state_bits;
  check Alcotest.bool "no codec" true (spec.Algo.Spec.codec = None);
  let metrics = Stdx.Metrics.create () in
  let o =
    Sim.Engine.run ~metrics ~spec ~adversary:(Sim.Adversary.split_brain ())
      ~faulty:[ 1 ] ~rounds:400 ~seed:1 ()
  in
  check Alcotest.bool "stabilises" true
    (match o.Sim.Engine.verdict with
    | Sim.Online.Stabilized _ -> true
    | Sim.Online.Not_stabilized -> false);
  check Alcotest.bool "no flat run counted" true
    (Stdx.Metrics.find (Stdx.Metrics.snapshot metrics) "engine.flat_runs"
    = None)

(* ------------------------------------------------------------------ *)
(* Craft-level differential: one phase's crafter, kernel vs boxed       *)
(* ------------------------------------------------------------------ *)

(* The engine-level differentials above see a kernel only through the
   states it drives. Here the two crafters of one strategy face the same
   random state vectors directly, for a few consecutive rounds of one
   phase: the kernel's [out] matrix must be the encoded boxed matrix,
   and the two adversary rngs must stay in lockstep (same next draw
   after every round). Randomised specs make the lookahead's probe rngs
   observable, so a skipped or extra split shows up as a different
   matrix as well as a different next draw. *)

let qcheck ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

let a12_3 () =
  (Counting.Boost.construct
     ~inner:
       (Counting.Boost.construct
          ~inner:(Counting.Trivial.single ~c:2304)
          ~k:4 ~big_f:1 ~big_c:960)
         .Counting.Boost.spec
     ~k:3 ~big_f:3 ~big_c:1728)
    .Counting.Boost.spec

(* The environment the engine hands a flat kernel. *)
let flat_env (spec : 's Algo.Spec.t) =
  let c = Option.get spec.Algo.Spec.codec in
  {
    Sim.Adversary.n = spec.Algo.Spec.n;
    random_code = c.Algo.Spec.random_code;
    output_code = c.Algo.Spec.output_code;
    fresh_kernel = c.Algo.Spec.fresh_kernel;
  }

let craft_lockstep ?(rounds = 3) (spec : 's Algo.Spec.t) adversary ~faulty
    ~seed =
  let codec = Option.get spec.Algo.Spec.codec in
  let n = spec.Algo.Spec.n in
  let nf = Array.length faulty in
  let kernel = adversary.Sim.Adversary.fresh_flat (flat_env spec) in
  let crafter = adversary.Sim.Adversary.fresh () in
  let state_rng = Stdx.Rng.create seed in
  let flat_rng = Stdx.Rng.create (seed + 1) in
  let boxed_rng = Stdx.Rng.create (seed + 1) in
  let out = Array.make (max 1 (nf * n)) (-1) in
  let buf = Sim.Statebuf.create ~num_states:codec.Algo.Spec.num_states n in
  List.for_all
    (fun round ->
      let states =
        Array.init n (fun _ -> spec.Algo.Spec.random_state state_rng)
      in
      Array.iteri
        (fun v s -> Sim.Statebuf.set buf v (codec.Algo.Spec.encode_state s))
        states;
      kernel.Sim.Adversary.craft_flat ~rng:flat_rng ~round ~states:buf
        ~faulty ~out;
      let m =
        crafter.Sim.Adversary.craft ~spec ~rng:boxed_rng ~round ~states
          ~faulty
      in
      let encoded =
        Array.concat
          (Array.to_list
             (Array.map (Array.map codec.Algo.Spec.encode_state) m))
      in
      Array.length m = nf
      && encoded = Array.sub out 0 (nf * n)
      && Int64.equal (Stdx.Rng.next_int64 flat_rng)
           (Stdx.Rng.next_int64 boxed_rng))
    (List.init rounds Fun.id)

let pools = [| 0; 1; 2; 8 |]

(* [size] distinct node ids, in sampled (not sorted) order. *)
let random_faulty (spec : 's Algo.Spec.t) ~size ~seed =
  Array.of_list
    (Stdx.Rng.sample_without_replacement (Stdx.Rng.create seed) size
       spec.Algo.Spec.n)

(* Random faulty sets of [min_faulty .. f] nodes, pool sizes from
   [pools], three rounds per case. *)
let craft_differential ?count ?min_faulty ~label (spec : 's Algo.Spec.t) =
  let lo = Option.value min_faulty ~default:0 in
  qcheck ?count
    (Printf.sprintf "craft differential: greedy-confusion on %s" label)
    QCheck.(
      triple
        (int_range lo spec.Algo.Spec.f)
        (int_range 0 (Array.length pools - 1))
        small_nat)
    (fun (size, pi, seed) ->
      let faulty = random_faulty spec ~size ~seed in
      craft_lockstep spec
        (Sim.Adversary.greedy_confusion ~pool:pools.(pi) ())
        ~faulty ~seed)

let test_craft_differential_leader =
  craft_differential ~label:"follow-leader f=2" leader_f2

(* Two faulty senders whose slots both feed a vote quorum: probing the
   second must see the first at its true code, not a leftover
   candidate. *)
let test_craft_differential_rand =
  craft_differential ~label:"rand-counter n=7 f=2"
    (Counting.Rand_counter.make ~n:7 ~f:2)

let test_craft_differential_a41 = craft_differential ~label:"A(4,1)" (a41 ())

let test_craft_differential_a12 =
  craft_differential ~count:25 ~label:"A(12,3)" (a12_3 ())

(* n = f: no correct recipient, so a round is just the pool draws. *)
let test_craft_differential_all_faulty =
  craft_differential ~count:40 ~min_faulty:4 ~label:"n = f = 4"
    (Algo.Combinators.with_claimed_resilience leader ~f:4)

(* Every standard strategy's kernel in isolation against its boxed
   crafter: a random strategy and faulty set of [0 .. f] nodes per case.
   Six rounds, so the history-replaying strategies ([stale ~delay:3],
   [replay_correct ~delay:2]) move past their fill-up fallback. *)
let suite_lockstep ?count ?min_faulty ~label (spec : 's Algo.Spec.t) =
  let suite = Array.of_list (Sim.Adversary.standard_suite ()) in
  let lo = Option.value min_faulty ~default:0 in
  qcheck ?count
    (Printf.sprintf "craft lockstep: standard suite on %s" label)
    QCheck.(
      triple
        (int_range 0 (Array.length suite - 1))
        (int_range lo spec.Algo.Spec.f)
        small_nat)
    (fun (ai, size, seed) ->
      craft_lockstep ~rounds:6 spec suite.(ai)
        ~faulty:(random_faulty spec ~size ~seed)
        ~seed)

let test_suite_lockstep_leader =
  suite_lockstep ~label:"follow-leader f=2" leader_f2

let test_suite_lockstep_rand =
  suite_lockstep ~label:"rand-counter n=7 f=2"
    (Counting.Rand_counter.make ~n:7 ~f:2)

let test_suite_lockstep_a41 = suite_lockstep ~label:"A(4,1)" (a41 ())

let test_suite_lockstep_a12 =
  suite_lockstep ~count:25 ~label:"A(12,3)" (a12_3 ())

let test_suite_lockstep_all_faulty =
  suite_lockstep ~count:40 ~min_faulty:4 ~label:"n = f = 4"
    (Algo.Combinators.with_claimed_resilience leader ~f:4)

(* ------------------------------------------------------------------ *)
(* end_round convention (regression: final phase was reported one past   *)
(* the round it ended at)                                               *)
(* ------------------------------------------------------------------ *)

let end_rounds (o : _ Sim.Engine.schedule_outcome) =
  List.map (fun (r : Sim.Engine.phase_report) -> r.Sim.Engine.end_round)
    o.Sim.Engine.phases

let benign_phase duration =
  { Sim.Schedule.adversary = Sim.Adversary.benign (); faulty = []; duration }

let test_end_round_single_phase_full () =
  let schedule = { Sim.Schedule.phases = [ benign_phase 120 ]; events = [] } in
  let o =
    Sim.Engine.run_schedule ~mode:Sim.Engine.Full_horizon ~spec:leader
      ~schedule ~seed:1 ()
  in
  check Alcotest.bool "no early exit" false o.Sim.Engine.early_exit;
  check Alcotest.int "simulated the horizon" 120 o.Sim.Engine.rounds_simulated;
  check (Alcotest.list Alcotest.int) "end_round = horizon" [ 120 ]
    (end_rounds o)

let test_end_round_single_phase_streaming () =
  let schedule = { Sim.Schedule.phases = [ benign_phase 400 ]; events = [] } in
  let o = Sim.Engine.run_schedule ~spec:leader ~schedule ~seed:1 () in
  check Alcotest.bool "early exit" true o.Sim.Engine.early_exit;
  check Alcotest.bool "stopped before the horizon" true
    (o.Sim.Engine.rounds_simulated < 400);
  check (Alcotest.list Alcotest.int) "end_round = rounds_simulated"
    [ o.Sim.Engine.rounds_simulated ]
    (end_rounds o)

let test_end_round_multi_phase_full () =
  let schedule =
    {
      Sim.Schedule.phases = [ benign_phase 30; benign_phase 40; benign_phase 50 ];
      events = [];
    }
  in
  let o =
    Sim.Engine.run_schedule ~mode:Sim.Engine.Full_horizon ~spec:leader
      ~schedule ~seed:2 ()
  in
  check Alcotest.bool "no early exit" false o.Sim.Engine.early_exit;
  check (Alcotest.list Alcotest.int) "end_round = start_round + duration"
    [ 30; 70; 120 ] (end_rounds o);
  List.iter
    (fun (r : Sim.Engine.phase_report) ->
      check Alcotest.bool "phases tile the horizon" true
        (r.Sim.Engine.start_round < r.Sim.Engine.end_round))
    o.Sim.Engine.phases

let test_end_round_multi_phase_streaming () =
  let schedule =
    { Sim.Schedule.phases = [ benign_phase 100; benign_phase 300 ]; events = [] }
  in
  let tracer = Sim.Trace.memory () in
  let o = Sim.Engine.run_schedule ~tracer ~spec:leader ~schedule ~seed:1 () in
  check Alcotest.bool "early exit in the final phase" true
    (o.Sim.Engine.early_exit
    && o.Sim.Engine.rounds_simulated > 100
    && o.Sim.Engine.rounds_simulated < 400);
  check (Alcotest.list Alcotest.int)
    "boundary phase ends at its boundary, final phase at rounds_simulated"
    [ 100; o.Sim.Engine.rounds_simulated ]
    (end_rounds o);
  (* the Verdict trace events carry the same convention *)
  let verdict_rounds =
    List.filter_map
      (function
        | Sim.Trace.Verdict { round; _ } -> Some round
        | _ -> None)
      (Sim.Trace.events tracer)
  in
  check (Alcotest.list Alcotest.int) "Verdict events at the end_rounds"
    (end_rounds o) verdict_rounds

(* ------------------------------------------------------------------ *)
(* Clamped transient events are surfaced, not silent                    *)
(* ------------------------------------------------------------------ *)

let corruption_events tracer =
  List.filter_map
    (function
      | Sim.Trace.Corruption { requested; victims; _ } ->
        Some (requested, victims)
      | _ -> None)
    (Sim.Trace.events tracer)

let run_clamp ~faulty ~victims =
  let schedule =
    {
      Sim.Schedule.phases =
        [ { Sim.Schedule.adversary = Sim.Adversary.stuck (); faulty;
            duration = 60 } ];
      events = [ { Sim.Schedule.round = 20; victims } ];
    }
  in
  let tracer = Sim.Trace.memory () in
  let metrics = Stdx.Metrics.create () in
  let o =
    Sim.Engine.run_schedule ~tracer ~metrics ~mode:Sim.Engine.Full_horizon
      ~spec:leader_f2 ~schedule ~seed:7 ()
  in
  ignore (o : int Sim.Engine.schedule_outcome);
  let clamped =
    match Stdx.Metrics.find (Stdx.Metrics.snapshot metrics)
            "engine.clamped_events" with
    | Some (Stdx.Metrics.Counter k) -> k
    | _ -> Alcotest.fail "engine.clamped_events counter missing"
  in
  (corruption_events tracer, clamped)

let test_clamp_surfaced () =
  (* two faulty nodes leave two correct ones; asking for three victims
     must clamp to two — visibly *)
  match run_clamp ~faulty:[ 1; 3 ] ~victims:3 with
  | [ (requested, victims) ], clamped ->
    check Alcotest.int "requested recorded" 3 requested;
    check Alcotest.int "victims clamped to the correct nodes" 2
      (List.length victims);
    check Alcotest.bool "victims are correct nodes" true
      (List.for_all (fun v -> v = 0 || v = 2) victims);
    check Alcotest.int "clamp counted in metrics" 1 clamped
  | events, _ ->
    Alcotest.failf "expected one corruption event, got %d" (List.length events)

let test_clamp_not_counted_when_satisfiable () =
  match run_clamp ~faulty:[ 1 ] ~victims:2 with
  | [ (requested, victims) ], clamped ->
    check Alcotest.int "requested recorded" 2 requested;
    check Alcotest.int "all requested victims hit" 2 (List.length victims);
    check Alcotest.int "no clamp counted" 0 clamped
  | events, _ ->
    Alcotest.failf "expected one corruption event, got %d" (List.length events)

let test_corruption_json_roundtrip () =
  let e =
    Sim.Trace.Corruption { round = 12; phase = 1; requested = 3; victims = [ 0; 2 ] }
  in
  (match Sim.Trace.of_json (Sim.Trace.to_json e) with
  | Ok e' -> check Alcotest.bool "round-trips" true (Sim.Trace.equal_event e e')
  | Error msg -> Alcotest.failf "of_json failed: %s" msg);
  (* pre-existing JSONL without the requested field still parses,
     defaulting requested to the victim count *)
  match
    Sim.Trace.of_json
      {|{"ev":"corruption","round":12,"phase":1,"victims":[0,2]}|}
  with
  | Ok e' ->
    check Alcotest.bool "legacy line parses with requested = |victims|" true
      (Sim.Trace.equal_event
         (Sim.Trace.Corruption
            { round = 12; phase = 1; requested = 2; victims = [ 0; 2 ] })
         e')
  | Error msg -> Alcotest.failf "legacy of_json failed: %s" msg

let suite =
  [
    ( "sim.flat",
      [
        case "static differential: follow-leader"
          test_static_differential_leader;
        case "static differential: follow-leader f=2"
          test_static_differential_leader_f2;
        case "static differential: rand-counter" test_static_differential_rand;
        case "static differential: boost tower A(4,1)"
          test_static_differential_boost;
        case "static differential: derived codec"
          test_static_differential_derived;
        case "schedule differential: random chaos schedules"
          test_schedule_differential_random;
        case "schedule differential: boost tower with event"
          test_schedule_differential_boost;
        case "chaos campaign differential at REPRO_JOBS"
          test_chaos_campaign_differential;
        case "schedule differential: every strategy, fresh crafter per phase"
          test_schedule_differential_every_strategy;
        case "chaos campaign differential with greedy-confusion at REPRO_JOBS"
          test_chaos_campaign_differential_greedy;
        case "codec-less tower runs boxed" test_codecless_tower_runs_boxed;
        test_craft_differential_leader;
        test_craft_differential_rand;
        test_craft_differential_a41;
        test_craft_differential_a12;
        test_craft_differential_all_faulty;
        test_suite_lockstep_leader;
        test_suite_lockstep_rand;
        test_suite_lockstep_a41;
        test_suite_lockstep_a12;
        test_suite_lockstep_all_faulty;
      ] );
    ( "sim.engine.end_round",
      [
        case "single phase, full horizon" test_end_round_single_phase_full;
        case "single phase, streaming early exit"
          test_end_round_single_phase_streaming;
        case "multi phase, full horizon" test_end_round_multi_phase_full;
        case "multi phase, streaming early exit"
          test_end_round_multi_phase_streaming;
      ] );
    ( "sim.engine.clamp",
      [
        case "clamped event surfaces requested vs actual" test_clamp_surfaced;
        case "satisfiable event is not counted as clamped"
          test_clamp_not_counted_when_satisfiable;
        case "corruption JSON round-trip and legacy lines"
          test_corruption_json_roundtrip;
      ] );
  ]
