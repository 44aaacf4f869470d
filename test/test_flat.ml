(* Certification of the flat (packed state vector) engine against the
   boxed reference simulator in [Reference].

   Every differential here runs one execution on the engine and on the
   reference trajectory loop, and demands the same trajectory: every
   round's decoded states and output rows, and the same corruption
   victims. A second, unhooked engine run — the hot loop that never
   decodes — must then match the hooked one exactly: verdicts, phase
   reports, rounds simulated, final states, recent outputs and
   structured trace events. The craft-level lockstep properties step
   each strategy's flat kernel next to its boxed reference crafter.
   Also pins the end_round reporting convention and the surfacing of
   clamped transient events. *)

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

let parallel_jobs =
  match Sys.getenv_opt "REPRO_JOBS" with
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some j when j >= 1 -> j
    | _ -> 4)
  | None -> 4

let modes = [ Sim.Engine.Streaming; Sim.Engine.Full_horizon ]

(* ------------------------------------------------------------------ *)
(* Trajectory differential: engine vs the boxed reference               *)
(* ------------------------------------------------------------------ *)

(* One engine run whose [trace] hook stores every row exactly as handed
   over — no copy — so a row aliased to engine state would show up as a
   mismatch once later rounds overwrite it. *)
let hooked_run ?tracer ?min_suffix ~mode (spec : 's Algo.Spec.t) ~schedule ~seed =
  let total = Sim.Schedule.total_rounds schedule in
  let states = Array.make (total + 1) [||] in
  let outputs = Array.make (total + 1) [||] in
  let trace ~round ~states:s ~outputs:o =
    states.(round) <- s;
    outputs.(round) <- o
  in
  let o =
    Sim.Engine.run ?tracer ?min_suffix ~trace ~mode ~spec ~schedule
      ~seed ()
  in
  (o, states, outputs)

(* The first round in [0 .. upto] whose stored row differs from the
   reference's, if any. *)
let first_divergence (spec : 's Algo.Spec.t) (r : 's Reference.trajectory)
    ~upto states outputs =
  let same t =
    Array.length states.(t) = spec.Algo.Spec.n
    && Array.for_all2 spec.Algo.Spec.equal_state states.(t)
         r.Reference.states.(t)
    && outputs.(t) = r.Reference.outputs.(t)
  in
  List.find_opt (fun t -> not (same t)) (List.init (upto + 1) Fun.id)

let check_no_divergence ~ctx = function
  | None -> ()
  | Some t -> Alcotest.failf "%s: row %d differs from the reference" ctx t

let corruption_victims events =
  List.filter_map
    (function
      | Sim.Trace.Corruption { round; victims; _ } -> Some (round, victims)
      | _ -> None)
    events

let assert_matches_reference ~ctx (spec : 's Algo.Spec.t) ~schedule ~seed
    ~(reference : 's Reference.trajectory) ~mode =
  let ctx =
    Printf.sprintf "%s/%s" ctx
      (match mode with
      | Sim.Engine.Streaming -> "streaming"
      | Sim.Engine.Full_horizon -> "full")
  in
  let hooked_tracer = Sim.Trace.memory () in
  let hooked, states, outputs =
    hooked_run ~tracer:hooked_tracer ~mode spec ~schedule ~seed
  in
  let last = hooked.Sim.Engine.rounds_simulated in
  check_no_divergence ~ctx
    (first_divergence spec reference ~upto:last states outputs);
  check Alcotest.bool (ctx ^ ": no row past rounds_simulated") true
    (Array.for_all (fun row -> row = [||])
       (Array.sub states (last + 1) (Array.length states - last - 1)));
  if mode = Sim.Engine.Full_horizon then
    check Alcotest.int (ctx ^ ": full horizon simulated")
      (Sim.Schedule.total_rounds schedule) last;
  let hooked_events = Sim.Trace.events hooked_tracer in
  check
    Alcotest.(list (pair int (list int)))
    (ctx ^ ": corruption victims")
    (List.filter (fun (r, _) -> r <= last) reference.Reference.corruptions)
    (corruption_victims hooked_events);
  (* The unhooked run: same execution, never decoded. *)
  let plain_tracer = Sim.Trace.memory () in
  let plain =
    Sim.Engine.run ~tracer:plain_tracer ~mode ~spec ~schedule ~seed ()
  in
  check Alcotest.bool (ctx ^ ": same phase reports") true
    (plain.Sim.Engine.phases = hooked.Sim.Engine.phases);
  check Alcotest.bool (ctx ^ ": same verdict") true
    (Sim.Online.equal_verdict plain.Sim.Engine.verdict
       hooked.Sim.Engine.verdict);
  check Alcotest.int (ctx ^ ": same rounds_simulated") last
    plain.Sim.Engine.rounds_simulated;
  check Alcotest.bool (ctx ^ ": same early_exit") hooked.Sim.Engine.early_exit
    plain.Sim.Engine.early_exit;
  check Alcotest.bool (ctx ^ ": final states are the reference's") true
    (Array.for_all2 spec.Algo.Spec.equal_state plain.Sim.Engine.final_states
       reference.Reference.states.(last));
  check Alcotest.bool (ctx ^ ": recent outputs are the reference's") true
    (plain.Sim.Engine.recent_outputs = hooked.Sim.Engine.recent_outputs
    && List.for_all
         (fun (r, row) -> row = reference.Reference.outputs.(r))
         plain.Sim.Engine.recent_outputs);
  let plain_events = Sim.Trace.events plain_tracer in
  check Alcotest.int (ctx ^ ": same trace length")
    (List.length hooked_events) (List.length plain_events);
  List.iteri
    (fun i (pe, he) ->
      check Alcotest.bool
        (Printf.sprintf "%s: trace event %d (%s)" ctx i (Sim.Trace.to_json he))
        true (pe = he))
    (List.combine plain_events hooked_events)

(* One reference trajectory, checked against the engine in both modes. *)
let assert_schedule_differential ~ctx (spec : 's Algo.Spec.t) ~schedule ~seed =
  let reference = Reference.run ~spec ~schedule ~seed () in
  List.iter
    (fun mode ->
      assert_matches_reference ~ctx spec ~schedule ~seed ~reference ~mode)
    modes

let assert_static_differential ~label ~rounds ?(fault_sets = [ []; [ 0 ] ])
    ?(seeds = [ 1; 2 ]) (spec : 's Algo.Spec.t) =
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
              let ctx =
                Printf.sprintf "%s/%s/faulty=[%s]/seed=%d" label
                  (Sim.Adversary.name adversary)
                  (String.concat ";" (List.map string_of_int faulty))
                  seed
              in
              assert_schedule_differential ~ctx spec
                ~schedule:(Sim.Schedule.static ~adversary ~faulty ~rounds)
                ~seed)
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

(* The derived-codec path (generic kernel over [all_states]) must match
   the reference just like the hand-written kernels. *)
let test_static_differential_derived () =
  let derived =
    Algo.Spec.with_derived_codec { leader_f1 with Algo.Spec.codec = None }
  in
  assert_static_differential ~label:"derived-codec" ~rounds:120 ~seeds:[ 1 ]
    derived

(* The sampled pulling counter on four single-node blocks: its
   transition draws pull targets from the node's rng, and a faulty
   target answers each puller with its own crafted message. *)
let test_static_differential_sampled () =
  assert_static_differential ~label:"sampled A(4,1)" ~rounds:60 ~seeds:[ 1 ]
    (Pulling.Sampled.construct ~inner:(Counting.Trivial.single ~c:2304) ~k:4
       ~big_f:1 ~big_c:2 ~samples:3)
      .Pulling.Sampled.spec

(* Random chaos schedules: phase changes, transient corruption, both
   engine modes. *)
let test_schedule_differential_random () =
  List.iter
    (fun seed ->
      let schedule =
        Sim.Schedule.random ~spec:leader_f2
          ~adversaries:(Sim.Adversary.standard_suite ())
          ~phases:3 ~phase_rounds:50 ~events:2 ~max_victims:2 ~seed ()
      in
      assert_schedule_differential
        ~ctx:(Printf.sprintf "random-schedule/seed=%d" seed)
        leader_f2 ~schedule ~seed)
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

(* Whole chaos campaigns at the REPRO_JOBS worker count: every cell's
   outcome is the one a direct engine run of its schedule gives, and
   that run's trajectory is the reference's. The schedules are
   regenerated here exactly as [Harness.Chaos.run] draws them. *)
let assert_campaign_differential ~ctx (spec : 's Algo.Spec.t) ~adversaries =
  let seeds = [ 1; 2 ] in
  let config =
    Sim.Harness.Chaos.Config.(
      default |> with_campaigns 2 |> with_phases 2 |> with_phase_rounds 60
      |> with_events 1 |> with_seeds seeds |> with_jobs parallel_jobs)
  in
  let agg = Sim.Harness.Chaos.run ~config ~spec ~adversaries () in
  let cells =
    List.concat_map
      (fun campaign ->
        let schedule =
          Sim.Schedule.random ~spec ~adversaries ~phases:2 ~phase_rounds:60
            ~events:1 ~max_victims:2
            ~event_margin:(Sim.Min_suffix.default ~c:spec.Algo.Spec.c)
            ~seed:campaign ()
        in
        let min_suffix =
          Sim.Min_suffix.resolve ~c:spec.Algo.Spec.c
            ~rounds:(Sim.Schedule.total_rounds schedule)
            None
        in
        List.map (fun seed -> (campaign, schedule, seed, min_suffix)) seeds)
      [ 1; 2 ]
  in
  check Alcotest.int (ctx ^ ": one outcome per cell") (List.length cells)
    (List.length agg.Sim.Harness.Chaos.outcomes);
  List.iter2
    (fun (campaign, schedule, seed, min_suffix)
         (o : Sim.Harness.Chaos.outcome) ->
      let ctx = Printf.sprintf "%s/campaign %d/seed %d" ctx campaign seed in
      check Alcotest.string (ctx ^ ": same schedule")
        (Sim.Schedule.describe schedule) o.Sim.Harness.Chaos.schedule;
      let direct, states, outputs =
        hooked_run ~min_suffix ~mode:Sim.Engine.Streaming spec ~schedule ~seed
      in
      check Alcotest.bool (ctx ^ ": same phase reports") true
        (direct.Sim.Engine.phases = o.Sim.Harness.Chaos.phases);
      check Alcotest.int (ctx ^ ": same rounds_simulated")
        direct.Sim.Engine.rounds_simulated o.Sim.Harness.Chaos.rounds_simulated;
      let reference = Reference.run ~spec ~schedule ~seed () in
      check_no_divergence ~ctx
        (first_divergence spec reference
           ~upto:direct.Sim.Engine.rounds_simulated states outputs))
    cells agg.Sim.Harness.Chaos.outcomes

let test_chaos_campaign_differential () =
  assert_campaign_differential
    ~ctx:(Printf.sprintf "campaign at jobs=%d" parallel_jobs)
    leader_f2 ~adversaries:(Sim.Adversary.standard_suite ())

(* Every phase builds its own crafter: one phase per strategy (the
   lookahead included), and one strategy value run in two consecutive
   phases, whose history must restart at the boundary. *)
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
    ~seed:3

(* The lookahead kernel inside whole campaigns, at REPRO_JOBS. *)
let test_chaos_campaign_differential_greedy () =
  assert_campaign_differential
    ~ctx:(Printf.sprintf "greedy campaign at jobs=%d" parallel_jobs)
    leader_f2
    ~adversaries:
      [ Sim.Adversary.greedy_confusion ~pool:2 (); Sim.Adversary.split_brain () ]

(* The rows a [trace] hook receives are its own: kept without copying
   across a corruption event and many later rounds, each still equals
   the reference's row for its round. Pins "every call gets freshly
   decoded arrays that the hook may keep" (engine.mli). *)
let test_hook_rows_not_aliased () =
  let spec = a41 () in
  let schedule =
    {
      Sim.Schedule.phases =
        [
          { Sim.Schedule.adversary = Sim.Adversary.stale ~delay:2 ();
            faulty = [ 1 ]; duration = 80 };
        ];
      events =
        [
          { Sim.Schedule.round = 20; victims = 3 };
          { Sim.Schedule.round = 50; victims = 2 };
        ];
    }
  in
  let kept = ref [] in
  let trace ~round ~states ~outputs = kept := (round, states, outputs) :: !kept in
  let o =
    Sim.Engine.run ~trace ~mode:Sim.Engine.Full_horizon ~spec ~schedule
      ~seed:4 ()
  in
  let reference = Reference.run ~spec ~schedule ~seed:4 () in
  check Alcotest.int "one row per observed round" 81 (List.length !kept);
  List.iter
    (fun (round, states, outputs) ->
      check Alcotest.bool
        (Printf.sprintf "row %d still equals the reference's" round)
        true
        (Array.for_all2 spec.Algo.Spec.equal_state states
           reference.Reference.states.(round)
        && outputs = reference.Reference.outputs.(round)))
    !kept;
  (* The rows just before each event differ from the struck rows. *)
  List.iter
    (fun (round, _) ->
      check Alcotest.bool
        (Printf.sprintf "event at %d changed the observed row" round)
        false
        (Array.for_all2 spec.Algo.Spec.equal_state
           reference.Reference.states.(round)
           reference.Reference.states.(round - 1)))
    reference.Reference.corruptions;
  check Alcotest.bool "final states are the last row" true
    (Array.for_all2 spec.Algo.Spec.equal_state o.Sim.Engine.final_states
       reference.Reference.states.(80))

(* A boost level whose state codes would pass 63 bits drops its codec.
   The engine has one, packed, representation, so such a tower is
   rejected up front with an error naming the spec and its bit count —
   here an A(4,1) over a huge trivial counter, 64 state bits. *)
let test_codecless_tower_rejected () =
  let spec =
    (Counting.Boost.construct
       ~inner:(Counting.Trivial.single ~c:(2304 * (1 lsl 49)))
       ~k:4 ~big_f:1 ~big_c:2)
      .Counting.Boost.spec
  in
  check Alcotest.int "64 state bits" 64 spec.Algo.Spec.state_bits;
  check Alcotest.bool "no codec" true (spec.Algo.Spec.codec = None);
  match
    Sim.Engine.run ~spec
      ~schedule:
        (Sim.Schedule.static ~adversary:(Sim.Adversary.split_brain ())
           ~faulty:[ 1 ] ~rounds:400)
      ~seed:1 ()
  with
  | _ -> Alcotest.fail "a codec-less spec ran"
  | exception Invalid_argument msg ->
    let mentions s = Astring.String.is_infix ~affix:s msg in
    check Alcotest.bool
      (Printf.sprintf "error names the spec and its bits: %s" msg)
      true
      (mentions spec.Algo.Spec.name && mentions "64 state bits")

(* ------------------------------------------------------------------ *)
(* Craft-level differential: one phase's crafter, kernel vs reference   *)
(* ------------------------------------------------------------------ *)

(* The trajectory differentials above see a kernel only through the
   states it drives. Here a strategy's flat kernel and its boxed
   reference crafter face the same random state vectors directly, for a
   few consecutive rounds of one phase: the kernel's [out] matrix must
   be the encoded boxed matrix, and the two adversary rngs must stay in
   lockstep (same next draw after every round). Randomised specs make
   the lookahead's probe rngs observable, so a skipped or extra split
   shows up as a different matrix as well as a different next draw. *)

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
    c = spec.Algo.Spec.c;
    random_code = c.Algo.Spec.random_code;
    probe_kernel = c.Algo.Spec.fresh_kernel;
  }

let craft_lockstep ?(rounds = 3) (spec : 's Algo.Spec.t) adversary ~faulty
    ~seed =
  let codec = Option.get spec.Algo.Spec.codec in
  let n = spec.Algo.Spec.n in
  let nf = Array.length faulty in
  let kernel = adversary.Sim.Adversary.fresh_flat (flat_env spec) in
  let crafter = Reference.fresh adversary in
  let state_rng = Stdx.Rng.create seed in
  let flat_rng = Stdx.Rng.create (seed + 1) in
  let boxed_rng = Stdx.Rng.create (seed + 1) in
  let out = Array.make (max 1 (nf * n)) (-1) in
  List.for_all
    (fun round ->
      let states =
        Array.init n (fun _ -> spec.Algo.Spec.random_state state_rng)
      in
      let codes = Array.map codec.Algo.Spec.encode_state states in
      let constant =
        kernel.Sim.Adversary.craft_flat ~rng:flat_rng ~round ~states:codes
          ~faulty ~out
      in
      (* A declared-constant row is [out.(fi * n)] for every recipient. *)
      let rows =
        Array.init (nf * n) (fun i ->
            if constant then out.(i / n * n) else out.(i))
      in
      let m =
        crafter.Reference.craft ~spec ~rng:boxed_rng ~round ~states ~faulty
      in
      let encoded =
        Array.concat
          (Array.to_list
             (Array.map (Array.map codec.Algo.Spec.encode_state) m))
      in
      Array.length m = nf
      && ((not constant)
         || Array.for_all
              (fun row -> Array.for_all (spec.Algo.Spec.equal_state row.(0)) row)
              m)
      && encoded = rows
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

(* Greedy scoring order: the kernel against its literal fi / recipient /
   candidate scan ([Reference.greedy_scan]) on the same code rows, four
   rounds per crafter pair. Rows and the rng left behind must agree; the
   scan makes every probe, the kernel only the undecided ones. *)
let greedy_order_lockstep (spec : 's Algo.Spec.t) ~faulty ~pool ~seed =
  let codec = Option.get spec.Algo.Spec.codec in
  let n = spec.Algo.Spec.n in
  let env = flat_env spec in
  let fast =
    (Sim.Adversary.greedy_confusion ~pool ()).Sim.Adversary.fresh_flat env
  in
  let scan = Reference.greedy_scan ~pool env in
  let state_rng = Stdx.Rng.create seed in
  let fast_rng = Stdx.Rng.create (seed + 1) in
  let scan_rng = Stdx.Rng.create (seed + 1) in
  let len = max 1 (Array.length faulty * n) in
  let fast_out = Array.make len (-1) and scan_out = Array.make len (-1) in
  List.for_all
    (fun round ->
      let states =
        Array.init n (fun _ -> codec.Algo.Spec.random_code state_rng)
      in
      let fast_constant =
        fast.Sim.Adversary.craft_flat ~rng:fast_rng ~round ~states ~faulty
          ~out:fast_out
      in
      let scan_constant =
        scan.Sim.Adversary.craft_flat ~rng:scan_rng ~round ~states ~faulty
          ~out:scan_out
      in
      (not fast_constant) && (not scan_constant)
      && fast_out = scan_out
      && Int64.equal
           (Stdx.Rng.next_int64 fast_rng)
           (Stdx.Rng.next_int64 scan_rng))
    (List.init 4 Fun.id)

let greedy_order ?count ~label (spec : 's Algo.Spec.t) =
  qcheck ?count
    (Printf.sprintf "greedy scoring order = fi/r/ci scan on %s" label)
    QCheck.(
      triple
        (int_range 0 spec.Algo.Spec.f)
        (int_range 0 (Array.length pools - 1))
        small_nat)
    (fun (size, pi, seed) ->
      greedy_order_lockstep spec
        ~faulty:(random_faulty spec ~size ~seed)
        ~pool:pools.(pi) ~seed)

let test_greedy_order_a41 = greedy_order ~label:"A(4,1)" (a41 ())

let test_greedy_order_a12 =
  greedy_order ~count:25 ~label:"A(12,3)" (a12_3 ())

let test_greedy_order_leader = greedy_order ~label:"leader:4:5 f=1" leader_f1

(* Its [step_output] draws from the probe's split, so a probe given the
   wrong split index shows up in the rows. *)
let test_greedy_order_rand =
  greedy_order ~label:"rand-counter n=7 f=2"
    (Counting.Rand_counter.make ~n:7 ~f:2)

(* Every node adopts node 0's bit and outputs it plus its own id, mod 2:
   any three nodes' truthful next outputs hold both values of c = 2, so
   the baseline is saturated every round and no candidate can score
   above another. *)
let parity =
  let transition ~self:_ ~rng:_ (received : int array) = received.(0) in
  let output ~self s = (s + self) land 1 in
  {
    Algo.Spec.name = "parity";
    n = 4;
    f = 1;
    c = 2;
    deterministic = true;
    state_bits = 1;
    equal_state = Int.equal;
    compare_state = Int.compare;
    pp_state = Format.pp_print_int;
    random_state = (fun rng -> Stdx.Rng.int rng 2);
    all_states = Some [ 0; 1 ];
    transition;
    output;
    codec =
      Some (Algo.Spec.identity_codec ~num_states:2 ~transition ~output ());
  }

let test_greedy_order_saturated =
  greedy_order ~label:"a saturated baseline" parity

(* A constant faulty row is announced by the round's [load], so an
   engine kernel sees no per-recipient [set] at all under strategies
   that send every recipient the same code. Random equivocation is the
   control: its rows differ, so it must see some. *)
let counting_sets (spec : 's Algo.Spec.t) =
  let codec = Option.get spec.Algo.Spec.codec in
  let sets = ref 0 in
  let fresh_kernel () =
    let k = codec.Algo.Spec.fresh_kernel () in
    {
      k with
      Algo.Spec.set =
        (fun u code ->
          incr sets;
          k.Algo.Spec.set u code);
    }
  in
  ({ spec with Algo.Spec.codec = Some { codec with fresh_kernel } }, sets)

let test_constant_rows_need_no_set () =
  let spec, sets = counting_sets (a12_3 ()) in
  let sets_under adversary =
    sets := 0;
    ignore
      (Sim.Engine.run ~mode:Sim.Engine.Full_horizon ~spec
         ~schedule:
           (Sim.Schedule.static ~adversary ~faulty:[ 2; 7; 9 ] ~rounds:60)
         ~seed:4 ());
    !sets
  in
  List.iter
    (fun adversary ->
      check Alcotest.int
        (Sim.Adversary.name adversary ^ " at full F: no set")
        0 (sets_under adversary))
    [
      Sim.Adversary.stuck ();
      Sim.Adversary.benign ();
      Sim.Adversary.mimic ~offset:1 ();
    ];
  check Alcotest.bool "random-equivocate: sets counted" true
    (sets_under (Sim.Adversary.random_equivocate ()) > 0)

(* ------------------------------------------------------------------ *)
(* Declared-constant rows                                               *)
(* ------------------------------------------------------------------ *)

(* [adversary] without its constant-row declarations: a round its
   crafter declares constant has every row written out in full from
   [out.(fi * n)] and is reported per-recipient, so the engine groups
   recipients and compares every faulty slot, as it does for
   equivocating rows. Same name and rng draws, so it is the same
   execution down another path of the round loop. *)
let undeclared (adversary : 's Sim.Adversary.t) =
  {
    adversary with
    Sim.Adversary.fresh_flat =
      (fun env ->
        let n = env.Sim.Adversary.n in
        let crafter = adversary.Sim.Adversary.fresh_flat env in
        {
          Sim.Adversary.craft_flat =
            (fun ~rng ~round ~states ~faulty ~out ->
              if crafter.Sim.Adversary.craft_flat ~rng ~round ~states ~faulty
                   ~out
              then
                Array.iteri
                  (fun fi _ -> Array.fill out (fi * n) n out.(fi * n))
                  faulty;
              false);
        });
  }

let undeclared_schedule (schedule : 's Sim.Schedule.t) =
  {
    schedule with
    Sim.Schedule.phases =
      List.map
        (fun (p : 's Sim.Schedule.phase) ->
          { p with Sim.Schedule.adversary = undeclared p.Sim.Schedule.adversary })
        schedule.Sim.Schedule.phases;
  }

(* The schedule run as is and with every declaration expanded must give
   the same outcome: phases, verdicts, rounds, final states and recent
   outputs. *)
let assert_declaration_neutral ~ctx (spec : 's Algo.Spec.t) ~schedule ~seed =
  List.iter
    (fun mode ->
      let run schedule = Sim.Engine.run ~mode ~spec ~schedule ~seed () in
      let declared = run schedule in
      let expanded = run (undeclared_schedule schedule) in
      let ctx =
        ctx
        ^
        match mode with
        | Sim.Engine.Streaming -> "/streaming"
        | Sim.Engine.Full_horizon -> "/full"
      in
      check Alcotest.bool (ctx ^ ": same phase reports") true
        (declared.Sim.Engine.phases = expanded.Sim.Engine.phases);
      check Alcotest.bool (ctx ^ ": same verdict") true
        (Sim.Online.equal_verdict declared.Sim.Engine.verdict
           expanded.Sim.Engine.verdict);
      check Alcotest.int (ctx ^ ": same rounds_simulated")
        expanded.Sim.Engine.rounds_simulated
        declared.Sim.Engine.rounds_simulated;
      check Alcotest.bool (ctx ^ ": same final states") true
        (Array.for_all2 spec.Algo.Spec.equal_state
           declared.Sim.Engine.final_states expanded.Sim.Engine.final_states);
      check Alcotest.bool (ctx ^ ": same recent outputs") true
        (declared.Sim.Engine.recent_outputs
        = expanded.Sim.Engine.recent_outputs))
    modes

let a36_7 () =
  (Counting.Boost.construct ~inner:(a12_3 ()) ~k:3 ~big_f:7 ~big_c:2)
    .Counting.Boost.spec

(* Every registry strategy on a static schedule at full resilience, then
   random chaos schedules over the whole registry. *)
let declaration_neutral ~label ~rounds (spec : 's Algo.Spec.t) () =
  List.iter
    (fun seed ->
      let faulty =
        Array.to_list (random_faulty spec ~size:spec.Algo.Spec.f ~seed)
      in
      List.iter
        (fun adversary ->
          assert_declaration_neutral
            ~ctx:
              (Printf.sprintf "%s/%s/seed=%d" label
                 (Sim.Adversary.name adversary) seed)
            spec
            ~schedule:(Sim.Schedule.static ~adversary ~faulty ~rounds)
            ~seed)
        (Sim.Adversary.registry ());
      let schedule =
        Sim.Schedule.random ~spec ~adversaries:(Sim.Adversary.registry ())
          ~phases:4 ~phase_rounds:rounds ~events:2 ~max_victims:2 ~seed ()
      in
      assert_declaration_neutral
        ~ctx:(Printf.sprintf "%s/chaos/seed=%d" label seed)
        spec ~schedule ~seed)
    [ 1; 2 ]

(* Each registry strategy's declarations checked against its boxed
   crafter ([craft_lockstep] demands a constant reference row on every
   round a kernel declares constant), at every faulty-set size. *)
let declarations_match_reference (spec : 's Algo.Spec.t) () =
  List.iter
    (fun adversary ->
      for size = 1 to spec.Algo.Spec.f do
        let seed = (7 * size) + 1 in
        check Alcotest.bool
          (Printf.sprintf "%s, %d faulty" (Sim.Adversary.name adversary) size)
          true
          (craft_lockstep ~rounds:6 spec adversary
             ~faulty:(random_faulty spec ~size ~seed)
             ~seed)
      done)
    (Sim.Adversary.registry ())

(* ------------------------------------------------------------------ *)
(* end_round convention (regression: final phase was reported one past   *)
(* the round it ended at)                                               *)
(* ------------------------------------------------------------------ *)

let end_rounds (o : _ Sim.Engine.outcome) =
  List.map (fun (r : Sim.Engine.phase_report) -> r.Sim.Engine.end_round)
    o.Sim.Engine.phases

let benign_phase duration =
  { Sim.Schedule.adversary = Sim.Adversary.benign (); faulty = []; duration }

let test_end_round_single_phase_full () =
  let schedule = { Sim.Schedule.phases = [ benign_phase 120 ]; events = [] } in
  let o =
    Sim.Engine.run ~mode:Sim.Engine.Full_horizon ~spec:leader
      ~schedule ~seed:1 ()
  in
  check Alcotest.bool "no early exit" false o.Sim.Engine.early_exit;
  check Alcotest.int "simulated the horizon" 120 o.Sim.Engine.rounds_simulated;
  check (Alcotest.list Alcotest.int) "end_round = horizon" [ 120 ]
    (end_rounds o)

let test_end_round_single_phase_streaming () =
  let schedule = { Sim.Schedule.phases = [ benign_phase 400 ]; events = [] } in
  let o = Sim.Engine.run ~spec:leader ~schedule ~seed:1 () in
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
    Sim.Engine.run ~mode:Sim.Engine.Full_horizon ~spec:leader
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
  let o = Sim.Engine.run ~tracer ~spec:leader ~schedule ~seed:1 () in
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
    Sim.Engine.run ~tracer ~metrics ~mode:Sim.Engine.Full_horizon
      ~spec:leader_f2 ~schedule ~seed:7 ()
  in
  ignore (o : int Sim.Engine.outcome);
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
  | Ok e' -> check Alcotest.bool "round-trips" true (e = e')
  | Error msg -> Alcotest.failf "of_json failed: %s" msg);
  (* pre-existing JSONL without the requested field still parses,
     defaulting requested to the victim count *)
  match
    Sim.Trace.of_json
      {|{"ev":"corruption","round":12,"phase":1,"victims":[0,2]}|}
  with
  | Ok e' ->
    check Alcotest.bool "legacy line parses with requested = |victims|" true
      (Sim.Trace.Corruption
         { round = 12; phase = 1; requested = 2; victims = [ 0; 2 ] }
      = e')
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
        case "static differential: sampled pulling"
          test_static_differential_sampled;
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
        case "codec-less tower is rejected cleanly"
          test_codecless_tower_rejected;
        case "hook rows are not aliased across events"
          test_hook_rows_not_aliased;
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
        test_greedy_order_a41;
        test_greedy_order_a12;
        test_greedy_order_leader;
        test_greedy_order_rand;
        test_greedy_order_saturated;
        case "constant faulty rows need no per-recipient set"
          test_constant_rows_need_no_set;
        case "declared-constant rows: expanded rows give the same runs on A(4,1)"
          (declaration_neutral ~label:"A(4,1)" ~rounds:80 (a41 ()));
        case "declared-constant rows: expanded rows give the same runs on A(12,3)"
          (declaration_neutral ~label:"A(12,3)" ~rounds:80 (a12_3 ()));
        case "declared-constant rows: expanded rows give the same runs on A(36,7)"
          (declaration_neutral ~label:"A(36,7)" ~rounds:60 (a36_7 ()));
        case
          "declared-constant rows: expanded rows give the same runs on leader:4:5 f=1"
          (declaration_neutral ~label:"leader:4:5" ~rounds:80 leader_f1);
        case "declared-constant rows are constant in the reference: A(4,1)"
          (declarations_match_reference (a41 ()));
        case "declared-constant rows are constant in the reference: A(12,3)"
          (declarations_match_reference (a12_3 ()));
        case "declared-constant rows are constant in the reference: A(36,7)"
          (declarations_match_reference (a36_7 ()));
        case
          "declared-constant rows are constant in the reference: leader:4:5 f=1"
          (declarations_match_reference leader_f1);
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
