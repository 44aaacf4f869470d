(* Tests for the configuration-space model checker and the synthesis
   engine. *)

let check = Alcotest.check
let case name f = Alcotest.test_case name `Quick f
let slow_case name f = Alcotest.test_case name `Slow f

(* ------------------------------------------------------------------ *)
(* Space                                                                *)
(* ------------------------------------------------------------------ *)

let leader3 = Counting.Trivial.follow_leader ~n:3 ~c:2

let test_space_counts () =
  let space = Mc.Space.create_exn leader3 ~faulty:[] in
  check Alcotest.int "configs 2^3" 8 (Mc.Space.config_count space)

let rejected ?max_configs spec =
  match Mc.Space.create_exn ?max_configs spec ~faulty:[] with
  | _ -> false
  | exception Invalid_argument _ -> true

let test_space_rejects_randomised () =
  let spec = Counting.Rand_counter.make ~n:4 ~f:1 in
  check Alcotest.bool "randomised rejected" true (rejected spec)

let test_space_rejects_unenumerable () =
  let spec = { leader3 with Algo.Spec.all_states = None } in
  check Alcotest.bool "no enumeration rejected" true (rejected spec)

let test_space_rejects_too_large () =
  check Alcotest.bool "max_configs honoured" true
    (rejected ~max_configs:4 leader3)

let test_space_outputs () =
  let space = Mc.Space.create_exn leader3 ~faulty:[] in
  (* config encoding is little-endian in correct-node positions *)
  let all_zero = 0 in
  check (Alcotest.option Alcotest.int) "agreeing" (Some 0)
    (Mc.Space.agreeing_output space all_zero)

let test_space_successors_no_faults () =
  (* deterministic + no faults => exactly one successor state per node *)
  let space = Mc.Space.create_exn leader3 ~faulty:[] in
  for cfg = 0 to Mc.Space.config_count space - 1 do
    Array.iter
      (fun set ->
        check Alcotest.int "singleton successor set" 1 (List.length set))
      (Mc.Space.successor_sets space cfg)
  done

let test_space_successors_with_fault () =
  (* follow-leader with node 0 faulty: node 0's message fully controls
     every correct node's next state => both states reachable. *)
  let spec = Algo.Combinators.with_claimed_resilience leader3 ~f:1 in
  let space = Mc.Space.create_exn spec ~faulty:[ 0 ] in
  check Alcotest.int "configs 2^2" 4 (Mc.Space.config_count space);
  let sets = Mc.Space.successor_sets space 0 in
  Array.iter
    (fun set -> check Alcotest.int "both states reachable" 2 (List.length set))
    sets

let test_space_forall_exists () =
  let space = Mc.Space.create_exn leader3 ~faulty:[] in
  check Alcotest.bool "forall true on singleton graph" true
    (Mc.Space.successors_forall space 0 (fun _ -> true));
  check Alcotest.bool "exists false for empty predicate" false
    (Mc.Space.successors_exists space 0 (fun _ -> false))

(* ------------------------------------------------------------------ *)
(* Checker on known-good algorithms                                     *)
(* ------------------------------------------------------------------ *)

let expect_verified name spec expected_t =
  match Mc.Checker.check spec with
  | Ok report ->
    check Alcotest.int (name ^ ": exact T") expected_t
      report.Mc.Checker.worst_stabilisation
  | Error f -> Alcotest.failf "%s: %s" name (Mc.Checker.check_to_string (Error f))

let test_trivial_single () = expect_verified "trivial c=2" (Counting.Trivial.single ~c:2) 0
let test_trivial_single_c5 () = expect_verified "trivial c=5" (Counting.Trivial.single ~c:5) 0

let test_follow_leader_exact_t () =
  expect_verified "follow-leader n=2" (Counting.Trivial.follow_leader ~n:2 ~c:2) 1;
  expect_verified "follow-leader n=3" leader3 1;
  expect_verified "follow-leader n=3 c=4" (Counting.Trivial.follow_leader ~n:3 ~c:4) 1

let test_broken_claims_rejected () =
  let broken =
    Algo.Combinators.with_claimed_resilience leader3 ~f:1
  in
  match Mc.Checker.check broken with
  | Ok _ -> Alcotest.fail "follow-leader must not survive a Byzantine leader"
  | Error f ->
    check (Alcotest.list Alcotest.int) "culprit is the leader" [ 0 ]
      f.Mc.Checker.fail_faulty

let test_broken_increment_rejected () =
  (* outputs agree but never increment: no good region *)
  let stuck =
    {
      (Counting.Trivial.follow_leader ~n:2 ~c:2) with
      Algo.Spec.transition = (fun ~self:_ ~rng:_ received -> received.(0));
    }
  in
  match Mc.Checker.check stuck with
  | Ok _ -> Alcotest.fail "non-counting algorithm accepted"
  | Error f -> check Alcotest.int "nothing is good" 0 f.Mc.Checker.fail_metrics.Mc.Checker.good

let test_oscillator_rejected () =
  (* two nodes swap states: agreement never forms from disagreement *)
  let swap =
    {
      (Counting.Trivial.follow_leader ~n:2 ~c:2) with
      Algo.Spec.transition =
        (fun ~self ~rng:_ received -> (received.(1 - self) + 1) mod 2);
    }
  in
  match Mc.Checker.check swap with
  | Ok _ -> Alcotest.fail "oscillator accepted"
  | Error f ->
    check Alcotest.bool "trap is non-empty" true
      (f.Mc.Checker.fail_metrics.Mc.Checker.trap > 0)

let test_checker_respects_faulty_sets_arg () =
  let broken = Algo.Combinators.with_claimed_resilience leader3 ~f:1 in
  (* restricted to the empty faulty set, the broken claim is fine *)
  check Alcotest.bool "empty set only: passes" true
    (Result.is_ok (Mc.Checker.check ~faulty_sets:[ [] ] broken))

let test_subsets () =
  check Alcotest.int "C(5,2)" 10 (List.length (Mc.Checker.subsets 5 2));
  check (Alcotest.list (Alcotest.list Alcotest.int)) "C(3,0)" [ [] ]
    (Mc.Checker.subsets 3 0);
  check Alcotest.bool "subsets are sorted and distinct" true
    (let s = Mc.Checker.subsets 6 3 in
     List.length (List.sort_uniq compare s) = 20)

let test_evaluate_metrics_consistent () =
  let space = Mc.Space.create_exn leader3 ~faulty:[] in
  let m = Mc.Checker.evaluate space in
  check Alcotest.int "good + bad = all" m.Mc.Checker.configurations
    (m.Mc.Checker.good + m.Mc.Checker.bad);
  check Alcotest.bool "trap within bad" true (m.Mc.Checker.trap <= m.Mc.Checker.bad);
  check Alcotest.bool "no cycle" false m.Mc.Checker.cycle

(* The model checker agrees with simulation: the exact T of follow-leader
   (T=1) is never exceeded by simulated stabilisation times. *)
let test_checker_vs_simulation () =
  let spec = Counting.Trivial.follow_leader ~n:4 ~c:3 in
  let agg =
    let config =
      Sim.Harness.Config.(default |> with_seeds [ 1; 2; 3 ] |> with_rounds 40)
    in
    Sim.Harness.run ~config ~spec ~adversaries:[ Sim.Adversary.benign () ] ()
  in
  match agg.Sim.Harness.worst with
  | Some w -> check Alcotest.bool "sim <= exact T" true (w <= 1)
  | None -> Alcotest.fail "simulation did not stabilise"

(* ------------------------------------------------------------------ *)
(* Synthesis                                                            *)
(* ------------------------------------------------------------------ *)

let test_family_validation () =
  check Alcotest.bool "s < c rejected" true
    (try ignore (Mc.Synth.family ~n:3 ~f:0 ~c:3 ~s:2); false
     with Invalid_argument _ -> true)

let test_family_key_count () =
  (* n = 4, s = 3: multisets of 3 over 3 states = C(5,2) = 10; x3 own *)
  let fam = Mc.Synth.family ~n:4 ~f:1 ~c:2 ~s:3 in
  check Alcotest.int "key count" 30 fam.Mc.Synth.key_count

let test_to_spec_table_validation () =
  let fam = Mc.Synth.family ~n:3 ~f:0 ~c:2 ~s:2 in
  check Alcotest.bool "wrong size rejected" true
    (try ignore (Mc.Synth.to_spec { Mc.Synth.fam; table = [| 0 |] }); false
     with Invalid_argument _ -> true);
  check Alcotest.bool "entry out of range rejected" true
    (try
       ignore
         (Mc.Synth.to_spec { Mc.Synth.fam; table = Array.make fam.Mc.Synth.key_count 7 });
       false
     with Invalid_argument _ -> true)

let test_synth_exhaustive_finds_f0 () =
  match Mc.Synth.exhaustive ~budget:100 (Mc.Synth.family ~n:3 ~f:0 ~c:2 ~s:2) with
  | Mc.Synth.Found (cand, report) ->
    check Alcotest.bool "found candidate verifies" true
      (Result.is_ok (Mc.Checker.check (Mc.Synth.to_spec cand)));
    check Alcotest.bool "reasonable T" true
      (report.Mc.Checker.worst_stabilisation <= 4)
  | Mc.Synth.Not_found_within_budget _ ->
    Alcotest.fail "the parity counter exists in this family"

let test_synth_found_candidate_simulates () =
  (* end-to-end: the synthesised algorithm also works in the simulator *)
  match Mc.Synth.exhaustive ~budget:100 (Mc.Synth.family ~n:3 ~f:0 ~c:2 ~s:2) with
  | Mc.Synth.Not_found_within_budget _ -> Alcotest.fail "not found"
  | Mc.Synth.Found (cand, _) ->
    let spec = Mc.Synth.to_spec cand in
    let agg =
      let config =
        Sim.Harness.Config.(
          default |> with_seeds [ 1; 2; 3; 4 ] |> with_rounds 30)
      in
      Sim.Harness.run ~config ~spec ~adversaries:[ Sim.Adversary.benign () ] ()
    in
    check Alcotest.bool "stabilises in simulation" true agg.Sim.Harness.all_stabilized

let test_synth_anneal_finds_f0 () =
  match Mc.Synth.anneal ~budget:4000 ~restarts:4 ~seed:3 (Mc.Synth.family ~n:3 ~f:0 ~c:2 ~s:2) with
  | Mc.Synth.Found _ -> ()
  | Mc.Synth.Not_found_within_budget { best_score; _ } ->
    Alcotest.failf "annealing missed an easy target (best %d)" best_score

let test_synth_exhaustive_negative_result () =
  (* documented negative result: no uniform order-invariant 2-state
     2-counter for n = 6, f = 1 (full 4096-table enumeration) *)
  match Mc.Synth.exhaustive ~budget:5000 (Mc.Synth.family ~n:6 ~f:1 ~c:2 ~s:2) with
  | Mc.Synth.Found _ ->
    Alcotest.fail "unexpected: found a counter thought not to exist"
  | Mc.Synth.Not_found_within_budget { evaluated; _ } ->
    check Alcotest.int "search was exhaustive" 4096 evaluated

let suite =
  [
    ( "mc.space",
      [
        case "counts" test_space_counts;
        case "rejects randomised" test_space_rejects_randomised;
        case "rejects unenumerable" test_space_rejects_unenumerable;
        case "rejects too large" test_space_rejects_too_large;
        case "outputs" test_space_outputs;
        case "deterministic successors" test_space_successors_no_faults;
        case "byzantine successors" test_space_successors_with_fault;
        case "forall/exists" test_space_forall_exists;
      ] );
    ( "mc.checker",
      [
        case "trivial single c=2" test_trivial_single;
        case "trivial single c=5" test_trivial_single_c5;
        case "follow-leader exact T" test_follow_leader_exact_t;
        case "broken resilience claim" test_broken_claims_rejected;
        case "non-counting rejected" test_broken_increment_rejected;
        case "oscillator rejected" test_oscillator_rejected;
        case "explicit faulty sets" test_checker_respects_faulty_sets_arg;
        case "subsets" test_subsets;
        case "metrics consistent" test_evaluate_metrics_consistent;
        case "checker vs simulation" test_checker_vs_simulation;
      ] );
    ( "mc.synth",
      [
        case "family validation" test_family_validation;
        case "key count" test_family_key_count;
        case "table validation" test_to_spec_table_validation;
        case "exhaustive finds f=0 counter" test_synth_exhaustive_finds_f0;
        case "synthesised counter simulates" test_synth_found_candidate_simulates;
        case "anneal finds f=0 counter" test_synth_anneal_finds_f0;
        slow_case "negative result: no 2-state n=6 f=1 (exhaustive)"
          test_synth_exhaustive_negative_result;
      ] );
  ]
