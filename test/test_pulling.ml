(* Tests for the pulling model: simulator accounting, the sampled
   boosting construction (Theorem 4) and the oblivious pseudo-random
   variant (Corollary 5). *)

let check = Alcotest.check
let case name f = Alcotest.test_case name `Quick f
let slow_case name f = Alcotest.test_case name `Slow f

(* A minimal hand-rolled pulling algorithm for simulator tests: each node
   pulls node 0 and adopts value+1 (pull-based follow-leader). *)
let pull_leader ~n ~c : int Pulling.Pull_spec.t =
  Pulling.Pull_spec.validate_exn
    {
      Pulling.Pull_spec.name = "pull-leader";
      n;
      f = 0;
      c;
      state_bits = Stdx.Imath.bits_for c;
      deterministic = true;
      equal_state = Int.equal;
      pp_state = Format.pp_print_int;
      random_state = (fun rng -> Stdx.Rng.int rng c);
      pulls = (fun ~self:_ ~rng:_ _ -> [| 0 |]);
      transition =
        (fun ~self:_ ~rng:_ ~own:_ ~responses ->
          match responses with
          | [| (_, v) |] -> (v + 1) mod c
          | _ -> invalid_arg "unexpected response shape");
      output = (fun ~self:_ s -> s);
    }

let inner41 =
  (* A(4,1) counting mod 960, the Figure 2 base block; built with a
     concrete state type so tests can name it *)
  (Counting.Boost.construct ~inner:(Counting.Trivial.single ~c:2304) ~k:4
     ~big_f:1 ~big_c:960)
    .Counting.Boost.spec

(* ------------------------------------------------------------------ *)
(* Pull_sim                                                             *)
(* ------------------------------------------------------------------ *)

let test_pull_sim_counts_messages () =
  let spec = pull_leader ~n:5 ~c:4 in
  let run =
    Pulling.Pull_sim.run ~spec ~responder:(Pulling.Pull_sim.truthful_responder ())
      ~faulty:[] ~rounds:10 ~seed:1 ()
  in
  check Alcotest.int "one pull per node per round" 1 run.Pulling.Pull_sim.max_pulls;
  check Alcotest.int "total pulls" 50 run.Pulling.Pull_sim.total_pulls;
  check (Alcotest.float 1e-9) "bits per node per round"
    (float_of_int spec.Pulling.Pull_spec.state_bits)
    run.Pulling.Pull_sim.bits_pulled_per_round

let test_pull_sim_stabilises_leader () =
  let spec = pull_leader ~n:5 ~c:4 in
  let run =
    Pulling.Pull_sim.run ~spec ~responder:(Pulling.Pull_sim.truthful_responder ())
      ~faulty:[] ~rounds:30 ~seed:2 ()
  in
  match
    Sim.Stabilise.of_outputs ~c:4 ~correct:(Pulling.Pull_sim.correct_ids run)
      ~min_suffix:8 run.Pulling.Pull_sim.outputs
  with
  | Sim.Stabilise.Stabilized t -> check Alcotest.bool "T <= 1" true (t <= 1)
  | Sim.Stabilise.Not_stabilized -> Alcotest.fail "pull-leader did not stabilise"

let test_pull_sim_reproducible () =
  let spec = pull_leader ~n:4 ~c:3 in
  let go () =
    (Pulling.Pull_sim.run ~spec
       ~responder:(Pulling.Pull_sim.truthful_responder ()) ~faulty:[] ~rounds:10
       ~seed:9 ())
      .Pulling.Pull_sim.outputs
  in
  check (Alcotest.array (Alcotest.array Alcotest.int)) "same seed same run"
    (go ()) (go ())

let test_pull_sim_validation () =
  let spec = pull_leader ~n:4 ~c:3 in
  check Alcotest.bool "faulty beyond f rejected" true
    (try
       ignore
         (Pulling.Pull_sim.run ~spec
            ~responder:(Pulling.Pull_sim.truthful_responder ()) ~faulty:[ 0 ]
            ~rounds:1 ~seed:1 ());
       false
     with Invalid_argument _ -> true)

(* Both entry points share the engine's faulty-set checks and messages. *)
let assert_pull_rejects ~faulty msg =
  let spec = pull_leader ~n:4 ~c:3 in
  let responder = Pulling.Pull_sim.truthful_responder () in
  Alcotest.check_raises "run" (Invalid_argument msg) (fun () ->
      ignore (Pulling.Pull_sim.run ~spec ~responder ~faulty ~rounds:1 ~seed:1 ()));
  Alcotest.check_raises "run_stream" (Invalid_argument msg) (fun () ->
      ignore
        (Pulling.Pull_sim.run_stream ~min_suffix:1 ~spec ~responder ~faulty
           ~rounds:1 ~seed:1 ()))

let test_pull_sim_duplicate_faulty () =
  assert_pull_rejects ~faulty:[ 1; 1 ] "Pull_sim.run: duplicate faulty ids"

let test_pull_sim_faulty_out_of_range () =
  assert_pull_rejects ~faulty:[ 4 ] "Pull_sim.run: faulty id out of range"

(* The streaming path replays the exact same execution (identical RNG
   stream) as the full-trace path, so without early exit its verdict must
   equal the offline checker on run's trace; with early exit it may only
   stop sooner, never change the verdict on these suites. *)
let test_pull_sim_stream_matches_offline () =
  let spec = pull_leader ~n:5 ~c:4 in
  List.iter
    (fun responder ->
      List.iter
        (fun seed ->
          let name =
            Printf.sprintf "%s/seed=%d" responder.Pulling.Pull_sim.resp_name
              seed
          in
          let run =
            Pulling.Pull_sim.run ~spec ~responder ~faulty:[] ~rounds:40 ~seed ()
          in
          let offline =
            Sim.Stabilise.of_outputs ~c:4
              ~correct:(Pulling.Pull_sim.correct_ids run)
              ~min_suffix:8 run.Pulling.Pull_sim.outputs
          in
          let full =
            Pulling.Pull_sim.run_stream ~early_exit:false ~min_suffix:8 ~spec
              ~responder ~faulty:[] ~rounds:40 ~seed ()
          in
          let stream =
            Pulling.Pull_sim.run_stream ~min_suffix:8 ~spec ~responder
              ~faulty:[] ~rounds:40 ~seed ()
          in
          check Alcotest.bool (name ^ ": no-early-exit == offline") true
            (Sim.Stabilise.equal_verdict offline full.Pulling.Pull_sim.verdict);
          check Alcotest.bool (name ^ ": streaming == offline") true
            (Sim.Stabilise.equal_verdict offline
               stream.Pulling.Pull_sim.verdict);
          check Alcotest.bool (name ^ ": streaming within horizon") true
            (stream.Pulling.Pull_sim.rounds_simulated <= 40))
        [ 1; 2; 3 ])
    (Pulling.Pull_sim.standard_responders ())

let test_responders_answer () =
  let spec = pull_leader ~n:4 ~c:3 in
  List.iter
    (fun responder ->
      let v =
        responder.Pulling.Pull_sim.respond ~spec ~rng:(Stdx.Rng.create 1)
          ~round:0 ~states:[| 0; 1; 2; 0 |] ~target:1 ~puller:2
      in
      check Alcotest.bool
        (responder.Pulling.Pull_sim.resp_name ^ " returns a valid state")
        true
        (v >= 0 && v < 3))
    (Pulling.Pull_sim.standard_responders ())

let test_mirror_responder () =
  let spec = pull_leader ~n:4 ~c:3 in
  let r = Pulling.Pull_sim.mirror_responder () in
  let v =
    r.Pulling.Pull_sim.respond ~spec ~rng:(Stdx.Rng.create 1) ~round:0
      ~states:[| 0; 1; 2; 0 |] ~target:1 ~puller:2
  in
  check Alcotest.int "echoes the puller" 2 v

(* ------------------------------------------------------------------ *)
(* Sampled boosting                                                     *)
(* ------------------------------------------------------------------ *)

let sampled ~samples =
  Pulling.Sampled.construct ~inner:inner41 ~k:3 ~big_f:3 ~big_c:8 ~samples

let test_sampled_shape () =
  let s = sampled ~samples:4 in
  check Alcotest.int "N = 12" 12 s.Pulling.Sampled.spec.Pulling.Pull_spec.n;
  check Alcotest.int "F = 3" 3 s.Pulling.Sampled.spec.Pulling.Pull_spec.f;
  (* pulls: 3 peers + (k+1) * M + 1 king = 3 + 16 + 1 *)
  check Alcotest.int "pull budget" 20
    s.Pulling.Sampled.params.Pulling.Sampled.pulls_per_round

let test_sampled_pull_bound_holds () =
  let s = sampled ~samples:5 in
  let run =
    Pulling.Pull_sim.run ~spec:s.Pulling.Sampled.spec
      ~responder:(Pulling.Pull_sim.random_responder ()) ~faulty:[ 0; 5; 9 ]
      ~rounds:50 ~seed:1 ()
  in
  check Alcotest.bool "observed pulls within declared budget" true
    (run.Pulling.Pull_sim.max_pulls
    <= s.Pulling.Sampled.params.Pulling.Sampled.pulls_per_round)

let test_sampled_pull_targets_valid () =
  let s = sampled ~samples:6 in
  let spec = s.Pulling.Sampled.spec in
  let rng = Stdx.Rng.create 3 in
  for self = 0 to 11 do
    let state = spec.Pulling.Pull_spec.random_state rng in
    let targets = spec.Pulling.Pull_spec.pulls ~self ~rng state in
    Array.iter
      (fun u ->
        if u < 0 || u >= 12 then Alcotest.failf "target %d out of range" u;
        if u = self && u mod 4 = self mod 4 && u / 4 = self / 4 then
          Alcotest.fail "node pulls itself as a peer")
      (Array.sub targets 0 3)
  done

let test_sampled_converges_fault_free () =
  (* With no faulty nodes every sample is truthful, so once the block
     counters align the sampled construction behaves deterministically
     and must stabilise like the broadcast one. *)
  let s = sampled ~samples:6 in
  let run =
    Pulling.Pull_sim.run ~spec:s.Pulling.Sampled.spec
      ~responder:(Pulling.Pull_sim.truthful_responder ()) ~faulty:[]
      ~rounds:3500 ~seed:4 ()
  in
  match
    Sim.Stabilise.of_outputs ~c:8 ~correct:(Pulling.Pull_sim.correct_ids run)
      ~min_suffix:64 run.Pulling.Pull_sim.outputs
  with
  | Sim.Stabilise.Stabilized _ -> ()
  | Sim.Stabilise.Not_stabilized -> Alcotest.fail "did not stabilise"

let test_sampled_clean_fraction_grows () =
  (* Theorem 4's price: a residual per-round failure probability that
     shrinks as M grows. Measured as the fraction of clean counting
     steps late in the run. *)
  let clean_fraction samples =
    let s = sampled ~samples in
    let run =
      Pulling.Pull_sim.run ~spec:s.Pulling.Sampled.spec
        ~responder:(Pulling.Pull_sim.random_responder ()) ~faulty:[ 0; 5; 9 ]
        ~rounds:3000 ~seed:6 ()
    in
    let correct = Pulling.Pull_sim.correct_ids run in
    let ok = ref 0 in
    for t = 1500 to 2999 do
      if
        Sim.Stabilise.count_ok_step ~c:8 ~correct run.Pulling.Pull_sim.outputs
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
(* Oblivious variant                                                    *)
(* ------------------------------------------------------------------ *)

let test_oblivious_pulls_static () =
  let s =
    Pulling.Sampled.construct_oblivious ~inner:inner41 ~k:3 ~big_f:3 ~big_c:8
      ~samples:4 ~links_seed:42
  in
  let spec = s.Pulling.Sampled.spec in
  let rng = Stdx.Rng.create 1 in
  let st = spec.Pulling.Pull_spec.random_state rng in
  let t1 = spec.Pulling.Pull_spec.pulls ~self:3 ~rng st in
  let t2 = spec.Pulling.Pull_spec.pulls ~self:3 ~rng st in
  check (Alcotest.array Alcotest.int) "same links every round" t1 t2

let test_oblivious_includes_all_kings () =
  let s =
    Pulling.Sampled.construct_oblivious ~inner:inner41 ~k:3 ~big_f:3 ~big_c:8
      ~samples:4 ~links_seed:7
  in
  let spec = s.Pulling.Sampled.spec in
  let rng = Stdx.Rng.create 1 in
  let st = spec.Pulling.Pull_spec.random_state rng in
  let targets = Array.to_list (spec.Pulling.Pull_spec.pulls ~self:8 ~rng st) in
  List.iter
    (fun king ->
      check Alcotest.bool (Printf.sprintf "king %d pulled" king) true
        (List.mem king targets))
    [ 0; 1; 2; 3; 4 ]

let test_oblivious_stabilises_with_gentle_faults () =
  (* Corollary 5: with the faulty node outside the leader blocks and a
     reasonable M, most link seeds stabilise and stay stable. *)
  let ok = ref 0 in
  for seed = 1 to 6 do
    let s =
      Pulling.Sampled.construct_oblivious ~inner:inner41 ~k:3 ~big_f:3 ~big_c:8
        ~samples:16 ~links_seed:(300 + seed)
    in
    let run =
      Pulling.Pull_sim.run ~spec:s.Pulling.Sampled.spec
        ~responder:(Pulling.Pull_sim.random_responder ()) ~faulty:[ 11 ]
        ~rounds:3500 ~seed ()
    in
    if
      Sim.Stabilise.of_outputs ~c:8 ~correct:(Pulling.Pull_sim.correct_ids run)
        ~min_suffix:64 run.Pulling.Pull_sim.outputs
      <> Sim.Stabilise.Not_stabilized
    then incr ok
  done;
  check Alcotest.bool (Printf.sprintf "stabilised %d/6 seeds" !ok) true (!ok >= 5)

let suite =
  [
    ( "pulling.sim",
      [
        case "message accounting" test_pull_sim_counts_messages;
        case "pull-leader stabilises" test_pull_sim_stabilises_leader;
        case "reproducible" test_pull_sim_reproducible;
        case "validation" test_pull_sim_validation;
        case "validation: duplicate faulty ids" test_pull_sim_duplicate_faulty;
        case "validation: faulty id out of range"
          test_pull_sim_faulty_out_of_range;
        case "stream matches offline checker" test_pull_sim_stream_matches_offline;
        case "responders answer" test_responders_answer;
        case "mirror responder" test_mirror_responder;
      ] );
    ( "pulling.sampled",
      [
        case "shape and pull budget" test_sampled_shape;
        case "pull bound holds" test_sampled_pull_bound_holds;
        case "pull targets valid" test_sampled_pull_targets_valid;
        slow_case "converges when fault-free" test_sampled_converges_fault_free;
        slow_case "clean fraction grows with M" test_sampled_clean_fraction_grows;
      ] );
    ( "pulling.oblivious",
      [
        case "links are static" test_oblivious_pulls_static;
        case "all kings pulled" test_oblivious_includes_all_kings;
        slow_case "Corollary 5 stabilisation" test_oblivious_stabilises_with_gentle_faults;
      ] );
  ]
