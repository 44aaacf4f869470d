(* Tests for the Theorem 1 resilience-boosting construction: parameter
   validation, the exact state-bit formula, end-to-end stabilisation
   under the adversary suite, and the Lemma 2/3 window behaviour. *)

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
(* plan                                                                 *)
(* ------------------------------------------------------------------ *)

let plan_ok k big_f big_c n f c =
  Counting.Boost.plan ~k ~big_f ~big_c ~n_inner:n ~f_inner:f ~inner_c:c

let test_plan_accepts_figure2 () =
  match plan_ok 3 3 1728 4 1 960 with
  | Ok p ->
    check Alcotest.int "N" 12 p.Counting.Boost.big_n;
    check Alcotest.int "m" 2 p.Counting.Boost.m;
    check Alcotest.int "tau" 15 p.Counting.Boost.tau;
    check Alcotest.int "overhead 3(F+2)(2m)^k" 960 p.Counting.Boost.time_overhead
  | Error e -> Alcotest.fail e

let test_plan_rejects_small_k () =
  check Alcotest.bool "k = 2" true (Result.is_error (plan_ok 2 1 2 4 1 960))

let test_plan_rejects_resilience () =
  (* F < (f+1)*ceil(k/2): k = 3, f = 1 allows F <= 3 *)
  check Alcotest.bool "F = 4 rejected" true (Result.is_error (plan_ok 3 4 2 4 1 960));
  check Alcotest.bool "F = 3 accepted" true (Result.is_ok (plan_ok 3 3 2 4 1 960))

let test_plan_rejects_n_over_3 () =
  (* k = 5 single-node blocks, f = 0: (f+1)m = 3 allows F = 2, but
     N/3 = 5/3 does not. *)
  check Alcotest.bool "F = 2 on 5 nodes rejected" true
    (Result.is_error (plan_ok 5 2 2 1 0 11520));
  check Alcotest.bool "F = 1 on 5 nodes ok" true
    (Result.is_ok (plan_ok 5 1 2 1 0 (9 * 6 * 6 * 6 * 6 * 6)))

let test_plan_rejects_modulus () =
  check Alcotest.bool "inner c not a multiple" true
    (Result.is_error (plan_ok 3 3 2 4 1 961))

let test_plan_rejects_c1 () =
  check Alcotest.bool "C = 1" true (Result.is_error (plan_ok 3 3 1 4 1 960))

let test_plan_overflow () =
  check Alcotest.bool "(2m)^k overflow reported" true
    (Result.is_error (plan_ok 40 1 2 1 0 960))

(* ------------------------------------------------------------------ *)
(* construct: static properties                                         *)
(* ------------------------------------------------------------------ *)

let boosted = Counting.Boost.construct ~inner:inner41 ~k:3 ~big_f:3 ~big_c:8

let test_spec_shape () =
  let s = boosted.Counting.Boost.spec in
  check Alcotest.int "N = 12" 12 s.Algo.Spec.n;
  check Alcotest.int "F = 3" 3 s.Algo.Spec.f;
  check Alcotest.int "C = 8" 8 s.Algo.Spec.c;
  check Alcotest.bool "deterministic" true s.Algo.Spec.deterministic

let test_state_bits_formula () =
  (* S(B) = S(A) + ceil(log2 (C+1)) + 1 *)
  check Alcotest.int "state bits"
    (inner41.Algo.Spec.state_bits + Stdx.Imath.bits_for 9 + 1)
    boosted.Counting.Boost.spec.Algo.Spec.state_bits

let test_node_block_mapping () =
  let p = boosted.Counting.Boost.params in
  check (Alcotest.pair Alcotest.int Alcotest.int) "node 0" (0, 0)
    (Counting.Boost.block_of p 0);
  check (Alcotest.pair Alcotest.int Alcotest.int) "node 7" (1, 3)
    (Counting.Boost.block_of p 7);
  check Alcotest.int "inverse" 7
    (Counting.Boost.node_of p ~block:1 ~slot:3);
  for v = 0 to 11 do
    let block, slot = Counting.Boost.block_of p v in
    check Alcotest.int "roundtrip" v (Counting.Boost.node_of p ~block ~slot)
  done

let test_time_bound () =
  check Alcotest.int "T(B) = T(A) + 3(F+2)(2m)^k" 3264
    (Counting.Boost.time_bound ~inner_time:2304 boosted.Counting.Boost.params)

let test_output_range () =
  let s = boosted.Counting.Boost.spec in
  let rng = Stdx.Rng.create 9 in
  for _ = 1 to 200 do
    let st = s.Algo.Spec.random_state rng in
    let o = s.Algo.Spec.output ~self:0 st in
    if o < 0 || o >= 8 then Alcotest.failf "output %d out of range" o
  done

let test_transition_deterministic () =
  let s = boosted.Counting.Boost.spec in
  let rng = Stdx.Rng.create 4 in
  let states = Array.init 12 (fun _ -> s.Algo.Spec.random_state rng) in
  let r1 = Stdx.Rng.create 1 and r2 = Stdx.Rng.create 2 in
  let n1 = s.Algo.Spec.transition ~self:5 ~rng:r1 states in
  let n2 = s.Algo.Spec.transition ~self:5 ~rng:r2 states in
  check Alcotest.bool "rng-independent (deterministic algorithm)" true
    (s.Algo.Spec.equal_state n1 n2)

(* ------------------------------------------------------------------ *)
(* end-to-end stabilisation                                             *)
(* ------------------------------------------------------------------ *)

let stabilises ?(rounds = 4000) ~spec ~adversary ~faulty ~seed () =
  let run = Sim.Network.run ~spec ~adversary ~faulty ~rounds ~seed () in
  Sim.Stabilise.of_run ~min_suffix:64 run

let test_a41_stabilises_under_suite () =
  let tower =
    Counting.Plan.plan_tower_exn ~target_c:3 (Counting.Plan.corollary1_levels ~f:1)
  in
  let (Algo.Spec.Packed spec) = Counting.Build.tower tower in
  List.iter
    (fun adversary ->
      List.iter
        (fun faulty ->
          List.iter
            (fun seed ->
              match stabilises ~rounds:3000 ~spec ~adversary ~faulty ~seed () with
              | Sim.Stabilise.Stabilized t ->
                if t > 2304 then
                  Alcotest.failf "%s faulty=%s seed=%d: t = %d > bound 2304"
                    (Sim.Adversary.name adversary)
                    (String.concat "," (List.map string_of_int faulty))
                    seed t
              | Sim.Stabilise.Not_stabilized ->
                Alcotest.failf "%s faulty=%s seed=%d: did not stabilise"
                  (Sim.Adversary.name adversary)
                  (String.concat "," (List.map string_of_int faulty))
                  seed)
            [ 1; 2 ])
        [ []; [ 0 ]; [ 3 ] ])
    (Sim.Adversary.standard_suite ())

let test_a12_3_stabilises () =
  let spec = boosted.Counting.Boost.spec in
  List.iter
    (fun adversary ->
      match
        stabilises ~spec ~adversary ~faulty:[ 0; 5; 9 ] ~seed:11 ()
      with
      | Sim.Stabilise.Stabilized t ->
        if t > 3264 then
          Alcotest.failf "%s: t = %d exceeds Theorem 1 bound 3264"
            (Sim.Adversary.name adversary) t
      | Sim.Stabilise.Not_stabilized ->
        Alcotest.failf "%s: A(12,3) did not stabilise" (Sim.Adversary.name adversary))
    (Sim.Adversary.standard_suite ())

let test_a12_3_greedy_adversary () =
  let spec = boosted.Counting.Boost.spec in
  match
    stabilises ~rounds:4000 ~spec
      ~adversary:(Sim.Adversary.greedy_confusion ~pool:2 ())
      ~faulty:[ 2; 6; 10 ] ~seed:5 ()
  with
  | Sim.Stabilise.Stabilized t ->
    if t > 3264 then Alcotest.failf "greedy: t = %d exceeds bound" t
  | Sim.Stabilise.Not_stabilized -> Alcotest.fail "greedy adversary wins"

let test_whole_block_faulty () =
  (* All 3 faults in one block: that block is faulty, the other two carry
     the vote. *)
  let spec = boosted.Counting.Boost.spec in
  List.iter
    (fun adversary ->
      match stabilises ~spec ~adversary ~faulty:[ 4; 5; 6 ] ~seed:2 () with
      | Sim.Stabilise.Stabilized _ -> ()
      | Sim.Stabilise.Not_stabilized ->
        Alcotest.failf "%s: faulty block defeats the counter"
          (Sim.Adversary.name adversary))
    (Sim.Adversary.hostile_suite ())

let test_figure2_tower_a36_7 () =
  (* One level further: A(36,7) with seven faults, one hostile adversary
     (kept single-run: ~36 nodes x 6000 rounds). *)
  let tower = Counting.Plan.plan_tower_exn ~target_c:2 Counting.Plan.figure2_levels in
  let (Algo.Spec.Packed spec) = Counting.Build.tower tower in
  check Alcotest.int "N = 36" 36 spec.Algo.Spec.n;
  check Alcotest.int "F = 7" 7 spec.Algo.Spec.f;
  let faulty = [ 0; 1; 2; 3; 13; 22; 31 ] in
  match
    stabilises ~rounds:6000 ~spec
      ~adversary:(Sim.Adversary.split_brain ()) ~faulty ~seed:1 ()
  with
  | Sim.Stabilise.Stabilized t ->
    if t > 4992 then Alcotest.failf "A(36,7): t = %d exceeds bound 4992" t
  | Sim.Stabilise.Not_stabilized -> Alcotest.fail "A(36,7) did not stabilise"

(* ------------------------------------------------------------------ *)
(* Lemma 2/3 window behaviour via probes                                *)
(* ------------------------------------------------------------------ *)

let test_leader_windows_appear () =
  (* After stabilisation, all non-faulty blocks point to a common leader
     for at least tau consecutive rounds, and R increments during the
     window (Lemma 3). We probe a benign run of A(12,3). *)
  let spec = boosted.Counting.Boost.spec in
  let probes = ref [] in
  let probe ~round ~states =
    if round >= 2500 then
      probes := (round, Counting.Boost.probe_states boosted states) :: !probes
  in
  let run =
    Sim.Network.run ~spec ~adversary:(Sim.Adversary.benign ())
      ~faulty:[] ~rounds:4000 ~seed:3 ()
  in
  Array.iteri (fun round states -> probe ~round ~states) run.Sim.Network.states;
  let probes = List.rev !probes in
  let tau = boosted.Counting.Boost.params.Counting.Boost.tau in
  (* find a maximal run of rounds with identical block votes *)
  let consistent (p : Counting.Boost.probe) =
    Array.for_all
      (fun b -> b = p.Counting.Boost.block_votes.(0))
      p.Counting.Boost.block_votes
  in
  let best = ref 0 and current = ref 0 in
  List.iter
    (fun (_, p) ->
      if consistent p then begin
        incr current;
        if !current > !best then best := !current
      end
      else current := 0)
    probes;
  if !best < tau then
    Alcotest.failf "no common-leader window of length tau=%d (best %d)" tau !best

let test_r_value_increments_in_windows () =
  (* Lemma 3: there are windows of >= tau consecutive rounds in which R
     increments by one mod tau each round. R legitimately jumps whenever
     the leader block hands over (blocks count at unaligned phases), so we
     assert on the longest increment streak, not on global monotonicity. *)
  let spec = boosted.Counting.Boost.spec in
  let prev = ref None in
  let streak = ref 0 and best = ref 0 in
  let tau = boosted.Counting.Boost.params.Counting.Boost.tau in
  let probe ~round ~states =
    if round >= 3000 then begin
      let p = Counting.Boost.probe_states boosted states in
      (match !prev with
      | Some r when (r + 1) mod tau = p.Counting.Boost.r_value ->
        incr streak;
        if !streak > !best then best := !streak
      | Some _ -> streak := 0
      | None -> ());
      prev := Some p.Counting.Boost.r_value
    end
  in
  let run =
    Sim.Network.run ~spec ~adversary:(Sim.Adversary.benign ())
      ~faulty:[] ~rounds:4000 ~seed:3 ()
  in
  Array.iteri (fun round states -> probe ~round ~states) run.Sim.Network.states;
  if !best < tau then
    Alcotest.failf "longest R-increment streak %d < tau = %d" !best tau

let suite =
  [
    ( "boost.plan",
      [
        case "accepts Figure 2 parameters" test_plan_accepts_figure2;
        case "rejects k < 3" test_plan_rejects_small_k;
        case "rejects F >= (f+1)m" test_plan_rejects_resilience;
        case "rejects F >= N/3" test_plan_rejects_n_over_3;
        case "rejects bad modulus" test_plan_rejects_modulus;
        case "rejects C = 1" test_plan_rejects_c1;
        case "reports overflow" test_plan_overflow;
      ] );
    ( "boost.construct",
      [
        case "spec shape" test_spec_shape;
        case "state bits formula" test_state_bits_formula;
        case "node/block mapping" test_node_block_mapping;
        case "time bound" test_time_bound;
        case "output range" test_output_range;
        case "transition deterministic" test_transition_deterministic;
      ] );
    ( "boost.stabilisation",
      [
        slow_case "A(4,1) under full suite" test_a41_stabilises_under_suite;
        slow_case "A(12,3) under full suite" test_a12_3_stabilises;
        slow_case "A(12,3) vs greedy adversary" test_a12_3_greedy_adversary;
        slow_case "whole block faulty" test_whole_block_faulty;
        slow_case "A(36,7) from Figure 2" test_figure2_tower_a36_7;
      ] );
    ( "boost.windows",
      [
        slow_case "Lemma 2: common-leader windows" test_leader_windows_appear;
        slow_case "Lemma 3: R increments" test_r_value_increments_in_windows;
      ] );
  ]
