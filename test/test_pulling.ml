(* Tests for the pulling model on the engine: the sampled boosting
   construction (Theorem 4), the oblivious pseudo-random variant
   (Corollary 5), and their pull accounting. *)

let check = Alcotest.check
let case name f = Alcotest.test_case name `Quick f
let slow_case name f = Alcotest.test_case name `Slow f

let inner41 =
  (* A(4,1) counting mod 960, the Figure 2 base block; built with a
     concrete state type so tests can name it *)
  (Counting.Boost.construct ~inner:(Counting.Trivial.single ~c:2304) ~k:4
     ~big_f:1 ~big_c:960)
    .Counting.Boost.spec

(* ------------------------------------------------------------------ *)
(* Sampled boosting                                                     *)
(* ------------------------------------------------------------------ *)

let sampled ~samples =
  Pulling.Sampled.construct ~inner:inner41 ~k:3 ~big_f:3 ~big_c:8 ~samples

let oblivious ~samples ~links_seed =
  Pulling.Sampled.construct_oblivious ~inner:inner41 ~k:3 ~big_f:3 ~big_c:8
    ~samples ~links_seed

let test_sampled_shape () =
  let s = sampled ~samples:4 in
  check Alcotest.int "N = 12" 12 s.Pulling.Sampled.spec.Algo.Spec.n;
  check Alcotest.int "F = 3" 3 s.Pulling.Sampled.spec.Algo.Spec.f;
  (* pulls: 3 peers + (k+1) * M + 1 king = 3 + 16 + 1 *)
  check Alcotest.int "pull budget" 20
    s.Pulling.Sampled.pulls_per_round

let test_sampled_pull_bound_holds () =
  let s = sampled ~samples:5 in
  let run =
    Sim.Network.run ~spec:s.Pulling.Sampled.spec
      ~adversary:(Sim.Adversary.random_equivocate ())
      ~faulty:[ 0; 5; 9 ] ~rounds:50 ~seed:1 ()
  in
  check Alcotest.bool "observed pulls within declared budget" true
    ((Pulling.Sampled.tally s run).Pulling.Sampled.max_pulls
    <= s.Pulling.Sampled.pulls_per_round)

let test_sampled_pull_targets_valid () =
  let s = sampled ~samples:6 in
  let rng = Stdx.Rng.create 3 in
  for self = 0 to 11 do
    let state = s.Pulling.Sampled.spec.Algo.Spec.random_state rng in
    let targets = s.Pulling.Sampled.pulls ~self ~rng state in
    Array.iter
      (fun u ->
        if u < 0 || u >= 12 then Alcotest.failf "target %d out of range" u;
        if u = self && u mod 4 = self mod 4 && u / 4 = self / 4 then
          Alcotest.fail "node pulls itself as a peer")
      (Array.sub targets 0 3)
  done

(* [pull_count] is the length of the target list [pulls] would draw,
   computed without an rng, on random states of both variants. *)
let test_pull_count_matches_pulls () =
  let rng = Stdx.Rng.create 11 in
  List.iter
    (fun (label, s) ->
      for trial = 0 to 199 do
        let self = trial mod 12 in
        let state = s.Pulling.Sampled.spec.Algo.Spec.random_state rng in
        check Alcotest.int
          (Printf.sprintf "%s: node %d, trial %d" label self trial)
          (Array.length (s.Pulling.Sampled.pulls ~self ~rng state))
          (s.Pulling.Sampled.pull_count ~self state)
      done)
    [
      ("adaptive", sampled ~samples:6);
      ("oblivious", oblivious ~samples:4 ~links_seed:42);
    ]

(* Digests of the correct nodes' output rows ([Test_boost.rows_digest]),
   recorded from the dedicated pulling simulator this library used to
   ship, which froze faulty nodes at their initial states. The engine's
   [stuck] adversary sends exactly those states, and every node draws
   its samples from the same private rng stream, so the rows must be
   reproduced bit for bit. *)
let golden_rows =
  [
    ("adaptive M=6", [], 1, "550f36fdbad9b7f8e9968df732185da4");
    ("adaptive M=6", [], 2, "c98f245e6d8fcd10a74b4bfa4ff6f1fc");
    ("adaptive M=6", [ 0; 5; 9 ], 1, "f259cb71425abd1c8a50af310bb1cd63");
    ("adaptive M=6", [ 0; 5; 9 ], 2, "56e29f9da7892f13241345449a013b81");
    ("oblivious M=4", [], 1, "d71119901ed2eb82f5608d812b11475a");
    ("oblivious M=4", [], 2, "e081ad6bb2221d22331c59956e824766");
    ("oblivious M=4", [ 0; 5; 9 ], 1, "83995e9aedec2afb7752520a8a51b86d");
    ("oblivious M=4", [ 0; 5; 9 ], 2, "fa8267f7a7b77bf7d3a415409fd5f545");
  ]

let test_golden_rows_under_stuck () =
  let adaptive = sampled ~samples:6 in
  let obl = oblivious ~samples:4 ~links_seed:42 in
  List.iter
    (fun (label, faulty, seed, digest) ->
      let s = if label = "adaptive M=6" then adaptive else obl in
      let run =
        Sim.Network.run ~spec:s.Pulling.Sampled.spec
          ~adversary:(Sim.Adversary.stuck ()) ~faulty ~rounds:300 ~seed ()
      in
      check Alcotest.string
        (Printf.sprintf "%s faulty=[%s] seed=%d" label
           (String.concat ";" (List.map string_of_int faulty))
           seed)
        digest
        (Test_boost.rows_digest ~correct:(Sim.Network.correct_ids run)
           run.Sim.Network.outputs))
    golden_rows

let test_sampled_converges_fault_free () =
  (* With no faulty nodes every sample is truthful, so once the block
     counters align the sampled construction behaves deterministically
     and must stabilise like the broadcast one. *)
  let s = sampled ~samples:6 in
  let run =
    Sim.Network.run ~spec:s.Pulling.Sampled.spec
      ~adversary:(Sim.Adversary.stuck ()) ~faulty:[] ~rounds:3500 ~seed:4 ()
  in
  match Sim.Stabilise.of_run ~min_suffix:64 run with
  | Sim.Stabilise.Stabilized _ -> ()
  | Sim.Stabilise.Not_stabilized -> Alcotest.fail "did not stabilise"

let test_sampled_clean_fraction_grows () =
  (* Theorem 4's price: a residual per-round failure probability that
     shrinks as M grows. Measured as the fraction of clean counting
     steps late in the run. *)
  let clean_fraction samples =
    let s = sampled ~samples in
    let run =
      Sim.Network.run ~spec:s.Pulling.Sampled.spec
        ~adversary:(Sim.Adversary.random_equivocate ())
        ~faulty:[ 0; 5; 9 ] ~rounds:3000 ~seed:6 ()
    in
    let correct = Sim.Network.correct_ids run in
    let ok = ref 0 in
    for t = 1500 to 2999 do
      if
        Sim.Stabilise.count_ok_step ~c:8 ~correct run.Sim.Network.outputs
          ~round:t
      then incr ok
    done;
    float_of_int !ok /. 1500.0
  in
  let small = clean_fraction 4 and large = clean_fraction 48 in
  check Alcotest.bool
    (Printf.sprintf "violation rate drops with M (%.3f -> %.3f)" small large)
    true
    (large > small +. 0.2)

(* ------------------------------------------------------------------ *)
(* Running on the simulator                                             *)
(* ------------------------------------------------------------------ *)

(* [tally] against a direct recount: every correct node's target list,
   drawn from its start-of-round state, round by round. *)
let test_sim_counts_messages () =
  let s = sampled ~samples:5 in
  let rounds = 30 in
  let run =
    Sim.Network.run ~spec:s.Pulling.Sampled.spec
      ~adversary:(Sim.Adversary.random_equivocate ())
      ~faulty:[ 0; 5; 9 ] ~rounds ~seed:1 ()
  in
  let correct = Sim.Network.correct_ids run in
  let rng = Stdx.Rng.create 17 in
  let total = ref 0 and most = ref 0 in
  for round = 0 to rounds - 1 do
    List.iter
      (fun v ->
        let targets =
          s.Pulling.Sampled.pulls ~self:v ~rng run.Sim.Network.states.(round).(v)
        in
        total := !total + Array.length targets;
        most := max !most (Array.length targets))
      correct
  done;
  let tally = Pulling.Sampled.tally s run in
  check Alcotest.int "total pulls" !total tally.Pulling.Sampled.total_pulls;
  check Alcotest.int "max pulls" !most tally.Pulling.Sampled.max_pulls;
  check Alcotest.bool "within the budget" true
    (!most <= s.Pulling.Sampled.pulls_per_round);
  check (Alcotest.float 1e-9) "bits per node per round"
    (float_of_int (!total * s.Pulling.Sampled.spec.Algo.Spec.state_bits)
    /. float_of_int (rounds * List.length correct))
    tally.Pulling.Sampled.bits_pulled_per_round

(* Sample coins come from the nodes' private streams, so a seed fixes
   the whole run, full trace and streamed verdict alike. *)
let test_sim_reproducible () =
  let s = sampled ~samples:4 in
  let spec = s.Pulling.Sampled.spec in
  let adversary = Sim.Adversary.random_equivocate () in
  let faulty = [ 0; 5; 9 ] and rounds = 60 and seed = 9 in
  let trace () =
    (Sim.Network.run ~spec ~adversary ~faulty ~rounds ~seed ())
      .Sim.Network.outputs
  in
  check (Alcotest.array (Alcotest.array Alcotest.int)) "same seed same run"
    (trace ()) (trace ());
  let stream () =
    let o =
      Sim.Engine.run ~min_suffix:8 ~spec
        ~schedule:(Sim.Schedule.static ~adversary ~faulty ~rounds)
        ~seed ()
    in
    (o.Sim.Engine.rounds_simulated, o.Sim.Engine.recent_outputs)
  in
  let a = stream () and b = stream () in
  check Alcotest.int "same rounds simulated" (fst a) (fst b);
  check
    (Alcotest.list (Alcotest.pair Alcotest.int (Alcotest.array Alcotest.int)))
    "same recent outputs" (snd a) (snd b)

(* Both entry points share the schedule's faulty-set checks. *)
let assert_sim_rejects ~faulty msg =
  let s = sampled ~samples:4 in
  let spec = s.Pulling.Sampled.spec in
  let adversary = Sim.Adversary.stuck () in
  Alcotest.check_raises "Network.run" (Invalid_argument msg) (fun () ->
      ignore (Sim.Network.run ~spec ~adversary ~faulty ~rounds:1 ~seed:1 ()));
  Alcotest.check_raises "Engine.run" (Invalid_argument msg) (fun () ->
      ignore
        (Sim.Engine.run ~min_suffix:1 ~spec
           ~schedule:(Sim.Schedule.static ~adversary ~faulty ~rounds:1)
           ~seed:1 ()))

let test_sim_validation () =
  assert_sim_rejects ~faulty:[ 0; 4; 8; 11 ]
    "Schedule.validate: phase 0: 4 faulty nodes but resilience is 3"

let test_sim_duplicate_faulty () =
  assert_sim_rejects ~faulty:[ 1; 1 ]
    "Schedule.validate: phase 0: duplicate faulty ids"

let test_sim_faulty_out_of_range () =
  assert_sim_rejects ~faulty:[ 12 ]
    "Schedule.validate: phase 0: faulty id out of range"

(* ------------------------------------------------------------------ *)
(* Oblivious variant                                                    *)
(* ------------------------------------------------------------------ *)

let test_oblivious_pulls_static () =
  let s = oblivious ~samples:4 ~links_seed:42 in
  let rng = Stdx.Rng.create 1 in
  let st = s.Pulling.Sampled.spec.Algo.Spec.random_state rng in
  let t1 = s.Pulling.Sampled.pulls ~self:3 ~rng st in
  let t2 = s.Pulling.Sampled.pulls ~self:3 ~rng st in
  check (Alcotest.array Alcotest.int) "same links every round" t1 t2

let test_oblivious_includes_all_kings () =
  let s = oblivious ~samples:4 ~links_seed:7 in
  let rng = Stdx.Rng.create 1 in
  let st = s.Pulling.Sampled.spec.Algo.Spec.random_state rng in
  let targets = Array.to_list (s.Pulling.Sampled.pulls ~self:8 ~rng st) in
  List.iter
    (fun king ->
      check Alcotest.bool (Printf.sprintf "king %d pulled" king) true
        (List.mem king targets))
    [ 0; 1; 2; 3; 4 ]

(* Fixed links: every correct node pulls the full budget every round,
   so the tally is exact arithmetic. *)
let test_oblivious_tally_exact () =
  let s = oblivious ~samples:4 ~links_seed:42 in
  let budget = s.Pulling.Sampled.pulls_per_round in
  let rounds = 40 in
  let run =
    Sim.Network.run ~spec:s.Pulling.Sampled.spec
      ~adversary:(Sim.Adversary.random_equivocate ())
      ~faulty:[ 0; 5; 9 ] ~rounds ~seed:3 ()
  in
  let tally = Pulling.Sampled.tally s run in
  check Alcotest.int "total pulls" (rounds * 9 * budget)
    tally.Pulling.Sampled.total_pulls;
  check Alcotest.int "max pulls" budget tally.Pulling.Sampled.max_pulls;
  check (Alcotest.float 1e-9) "bits per node per round"
    (float_of_int (budget * s.Pulling.Sampled.spec.Algo.Spec.state_bits))
    tally.Pulling.Sampled.bits_pulled_per_round

let test_oblivious_stabilises_with_gentle_faults () =
  (* Corollary 5: with the faulty node outside the leader blocks and a
     reasonable M, most link seeds stabilise and stay stable. *)
  let ok = ref 0 in
  for seed = 1 to 6 do
    let s = oblivious ~samples:16 ~links_seed:(300 + seed) in
    let run =
      Sim.Network.run ~spec:s.Pulling.Sampled.spec
        ~adversary:(Sim.Adversary.random_equivocate ())
        ~faulty:[ 11 ] ~rounds:3500 ~seed ()
    in
    if Sim.Stabilise.of_run ~min_suffix:64 run <> Sim.Stabilise.Not_stabilized
    then incr ok
  done;
  check Alcotest.bool (Printf.sprintf "stabilised %d/6 seeds" !ok) true (!ok >= 5)

let suite =
  [
    ( "pulling.sim",
      [
        case "message accounting" test_sim_counts_messages;
        case "reproducible" test_sim_reproducible;
        case "validation" test_sim_validation;
        case "validation: duplicate faulty ids" test_sim_duplicate_faulty;
        case "validation: faulty id out of range" test_sim_faulty_out_of_range;
      ] );
    ( "pulling.sampled",
      [
        case "shape and pull budget" test_sampled_shape;
        case "pull bound holds" test_sampled_pull_bound_holds;
        case "pull targets valid" test_sampled_pull_targets_valid;
        case "pull_count matches pulls" test_pull_count_matches_pulls;
        case "golden rows under stuck" test_golden_rows_under_stuck;
        slow_case "converges when fault-free" test_sampled_converges_fault_free;
        slow_case "clean fraction grows with M" test_sampled_clean_fraction_grows;
      ] );
    ( "pulling.oblivious",
      [
        case "links are static" test_oblivious_pulls_static;
        case "all kings pulled" test_oblivious_includes_all_kings;
        case "pull tally is exact" test_oblivious_tally_exact;
        slow_case "Corollary 5 stabilisation" test_oblivious_stabilises_with_gentle_faults;
      ] );
  ]
