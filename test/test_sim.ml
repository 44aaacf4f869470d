(* Tests for the broadcast simulator, adversaries, and stabilisation
   detection. *)

let check = Alcotest.check
let case name f = Alcotest.test_case name `Quick f

let qcheck ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

let leader = Counting.Trivial.follow_leader ~n:4 ~c:5

(* ------------------------------------------------------------------ *)
(* Network                                                              *)
(* ------------------------------------------------------------------ *)

let test_run_shapes () =
  let run =
    Sim.Network.run ~spec:leader ~adversary:(Sim.Adversary.benign ()) ~faulty:[]
      ~rounds:10 ~seed:1 ()
  in
  check Alcotest.int "rounds+1 state rows" 11 (Array.length run.Sim.Network.states);
  check Alcotest.int "rounds+1 output rows" 11 (Array.length run.Sim.Network.outputs);
  check Alcotest.int "n columns" 4 (Array.length run.Sim.Network.states.(0));
  check Alcotest.int "messages per round" 12 run.Sim.Network.messages_per_round;
  check Alcotest.int "bits per round" (12 * leader.Algo.Spec.state_bits)
    run.Sim.Network.bits_per_round

let test_run_reproducible () =
  let go () =
    Sim.Network.run ~spec:leader ~adversary:(Sim.Adversary.benign ()) ~faulty:[]
      ~rounds:20 ~seed:7 ()
  in
  check
    (Alcotest.array (Alcotest.array Alcotest.int))
    "same seed, same outputs" (go ()).Sim.Network.outputs (go ()).Sim.Network.outputs

let test_run_seed_matters () =
  let go seed =
    (Sim.Network.run ~spec:leader ~adversary:(Sim.Adversary.benign ()) ~faulty:[]
       ~rounds:5 ~seed ())
      .Sim.Network.outputs
  in
  check Alcotest.bool "different seeds give different initial states" true
    (go 1 <> go 2)

let test_run_explicit_init () =
  let run =
    Sim.Network.run ~init:[| 0; 0; 0; 0 |] ~spec:leader
      ~adversary:(Sim.Adversary.benign ()) ~faulty:[] ~rounds:3 ~seed:1 ()
  in
  check (Alcotest.array Alcotest.int) "init respected" [| 0; 0; 0; 0 |]
    run.Sim.Network.states.(0);
  check (Alcotest.array Alcotest.int) "counts from init" [| 1; 1; 1; 1 |]
    run.Sim.Network.states.(1)

let test_run_rejects_bad_faulty () =
  let boom f = ignore (Sim.Network.run ~spec:leader ~adversary:(Sim.Adversary.benign ()) ~faulty:f ~rounds:1 ~seed:1 ()) in
  check Alcotest.bool "duplicate rejected" true
    (try boom [ 1; 1 ]; false with Invalid_argument _ -> true);
  check Alcotest.bool "out of range rejected" true
    (try boom [ 9 ]; false with Invalid_argument _ -> true);
  check Alcotest.bool "too many rejected (f = 0)" true
    (try boom [ 1 ]; false with Invalid_argument _ -> true)

let test_correct_ids () =
  let spec = Counting.Rand_counter.make ~n:7 ~f:2 in
  let run =
    Sim.Network.run ~spec ~adversary:(Sim.Adversary.benign ()) ~faulty:[ 2; 5 ]
      ~rounds:1 ~seed:1 ()
  in
  check (Alcotest.list Alcotest.int) "correct ids" [ 0; 1; 3; 4; 6 ]
    (Sim.Network.correct_ids run)

(* Faulty nodes cannot influence correct nodes beyond their messages: a
   benign adversary must produce the same run as no faulty set at all. *)
let test_benign_equals_faultless () =
  let spec = Counting.Trivial.follow_leader ~n:5 ~c:3 in
  let init = [| 2; 1; 0; 2; 1 |] in
  let a =
    Sim.Network.run ~init ~spec ~adversary:(Sim.Adversary.benign ())
      ~faulty:[] ~rounds:10 ~seed:3 ()
  in
  let spec_f1 = Algo.Combinators.with_claimed_resilience spec ~f:1 in
  let b =
    Sim.Network.run ~init ~spec:spec_f1 ~adversary:(Sim.Adversary.benign ())
      ~faulty:[ 4 ] ~rounds:10 ~seed:3 ()
  in
  check
    (Alcotest.array (Alcotest.array Alcotest.int))
    "same outputs" a.Sim.Network.outputs b.Sim.Network.outputs

(* ------------------------------------------------------------------ *)
(* Adversary strategies: shape and self-consistency                     *)
(* ------------------------------------------------------------------ *)

let craft_once adversary =
  let spec = Algo.Combinators.with_claimed_resilience leader ~f:2 in
  let crafter = Reference.fresh adversary in
  let rng = Stdx.Rng.create 5 in
  let states = [| 0; 1; 2; 3 |] in
  crafter.Reference.craft ~spec ~rng ~round:0 ~states ~faulty:[| 1; 3 |]

let test_adversary_matrix_shapes () =
  List.iter
    (fun adv ->
      let msgs = craft_once adv in
      check Alcotest.int
        (Sim.Adversary.name adv ^ ": one row per faulty node")
        2 (Array.length msgs);
      Array.iter
        (fun row ->
          check Alcotest.int
            (Sim.Adversary.name adv ^ ": one message per recipient")
            4 (Array.length row))
        msgs)
    (Sim.Adversary.standard_suite ())

let test_benign_sends_truth () =
  let msgs = craft_once (Sim.Adversary.benign ()) in
  check Alcotest.int "faulty node 1 sends its state" 1 msgs.(0).(0);
  check Alcotest.int "faulty node 3 sends its state" 3 msgs.(1).(2)

let test_stuck_freezes () =
  let adv = Sim.Adversary.stuck () in
  let spec = Algo.Combinators.with_claimed_resilience leader ~f:1 in
  let crafter = Reference.fresh adv in
  let rng = Stdx.Rng.create 5 in
  let m0 =
    crafter.Reference.craft ~spec ~rng ~round:0 ~states:[| 7; 1; 2; 3 |]
      ~faulty:[| 0 |]
  in
  let m1 =
    crafter.Reference.craft ~spec ~rng ~round:1 ~states:[| 9; 1; 2; 3 |]
      ~faulty:[| 0 |]
  in
  check Alcotest.int "round 0 sends initial" 7 m0.(0).(1);
  check Alcotest.int "round 1 still sends initial" 7 m1.(0).(1)

let test_split_brain_splits () =
  let msgs = craft_once (Sim.Adversary.split_brain ()) in
  (* correct nodes are 0 and 2; even recipients see node 0's state, odd
     recipients node 2's *)
  check Alcotest.int "even recipient" 0 msgs.(0).(0);
  check Alcotest.int "odd recipient" 2 msgs.(0).(1);
  check Alcotest.bool "the two halves differ" true (msgs.(0).(0) <> msgs.(0).(1))

let test_mimic_copies_correct () =
  let msgs = craft_once (Sim.Adversary.mimic ~offset:1 ()) in
  check Alcotest.bool "mimic sends some correct node's state" true
    (Array.for_all (fun v -> v = 0 || v = 2) msgs.(0))

let test_random_equivocate_varies () =
  let adv = Sim.Adversary.random_equivocate () in
  let spec = Algo.Combinators.with_claimed_resilience (Counting.Trivial.single ~c:1024) ~f:1 in
  let crafter = Reference.fresh adv in
  let rng = Stdx.Rng.create 5 in
  let msgs =
    crafter.Reference.craft ~spec ~rng ~round:0
      ~states:(Array.make 8 0) ~faulty:[| 0 |]
  in
  let distinct = List.sort_uniq compare (Array.to_list msgs.(0)) in
  check Alcotest.bool "equivocates (mostly distinct messages)" true
    (List.length distinct > 1)

let test_hostile_suite_excludes_benign () =
  check Alcotest.bool "no benign in hostile suite" true
    (List.for_all
       (fun a -> Sim.Adversary.name a <> "benign")
       (Sim.Adversary.hostile_suite ()))

(* Satellite: hostile membership is structural (the [benign] tag), not a
   string comparison — adding or renaming strategies cannot silently
   change suite membership. *)
let test_hostile_suite_structural () =
  check Alcotest.bool "benign () carries the tag" true
    (Sim.Adversary.benign ()).Sim.Adversary.benign;
  let std = Sim.Adversary.standard_suite () in
  check Alcotest.int "exactly one tagged strategy in the standard suite" 1
    (List.length (List.filter (fun a -> a.Sim.Adversary.benign) std));
  check
    (Alcotest.list Alcotest.string)
    "hostile_suite = standard_suite minus the tagged strategies"
    (List.filter_map
       (fun a ->
         if a.Sim.Adversary.benign then None else Some (Sim.Adversary.name a))
       std)
    (List.map Sim.Adversary.name (Sim.Adversary.hostile_suite ()))

(* Satellite: ~delay is validated at construction. A negative delay used
   to fall through the history lookup to the truthful fallback — a
   silently benign "attack". *)
let test_delay_validated () =
  let rejects label make =
    check Alcotest.bool (label ^ ": negative delay rejected") true
      (try
         ignore (make ());
         false
       with Invalid_argument _ -> true)
  in
  rejects "stale" (fun () -> Sim.Adversary.stale ~delay:(-1) ());
  rejects "replay-correct" (fun () ->
      Sim.Adversary.replay_correct ~delay:(-3) ())

(* ~pool is validated at construction too. A negative pool used to raise
   inside the engine run when n + pool < 0, and otherwise shrank the
   candidate list, down to silently sending a stale candidate slot. *)
let test_pool_validated () =
  (match Sim.Adversary.greedy_confusion ~pool:(-2) () with
  | exception Invalid_argument msg ->
    check Alcotest.string "message names the pool"
      "Adversary.greedy_confusion: negative pool -2" msg
  | _ -> Alcotest.fail "greedy_confusion: negative pool accepted");
  check Alcotest.string "pool 0 is legal" "greedy-confusion(0)"
    (Sim.Adversary.name (Sim.Adversary.greedy_confusion ~pool:0 ()))

(* delay = 0 is legal and exactly truthful: the "old" state is the one
   pushed this round. *)
let test_stale_delay_zero_truthful () =
  let spec = Algo.Combinators.with_claimed_resilience leader ~f:2 in
  let crafter = Reference.fresh (Sim.Adversary.stale ~delay:0 ()) in
  let rng = Stdx.Rng.create 5 in
  List.iteri
    (fun round states ->
      let msgs =
        crafter.Reference.craft ~spec ~rng ~round ~states ~faulty:[| 1; 3 |]
      in
      check Alcotest.int
        (Printf.sprintf "round %d: node 1 sends its current state" round)
        states.(1)
        msgs.(0).(0);
      check Alcotest.int
        (Printf.sprintf "round %d: node 3 sends its current state" round)
        states.(3)
        msgs.(1).(2))
    [ [| 0; 1; 2; 3 |]; [| 4; 4; 4; 4 |]; [| 2; 0; 1; 3 |] ]

(* The history fallback: before [delay] rounds of history exist, both
   stale and replay-correct send current states; once the buffer fills,
   they switch to the delayed ones. *)
let test_delay_history_fallback () =
  let spec = Algo.Combinators.with_claimed_resilience leader ~f:2 in
  let rng = Stdx.Rng.create 5 in
  let states_at r = [| 10 * r; 10 * r + 1; 10 * r + 2; 10 * r + 3 |] in
  let stale = Reference.fresh (Sim.Adversary.stale ~delay:2 ()) in
  let replay =
    Reference.fresh (Sim.Adversary.replay_correct ~delay:2 ())
  in
  for round = 0 to 3 do
    let states = states_at round in
    let s =
      stale.Reference.craft ~spec ~rng ~round ~states ~faulty:[| 1; 3 |]
    in
    let r =
      replay.Reference.craft ~spec ~rng ~round ~states ~faulty:[| 1; 3 |]
    in
    let expect_round = if round >= 2 then round - 2 else round in
    check Alcotest.int
      (Printf.sprintf "stale round %d replays round %d" round expect_round)
      (states_at expect_round).(1)
      s.(0).(0);
    (* correct ids are 0 and 2: faulty index 0 replays correct node 0,
       faulty index 1 replays correct node 2 *)
    check Alcotest.int
      (Printf.sprintf "replay-correct round %d replays round %d" round
         expect_round)
      (states_at expect_round).(2)
      r.(1).(0)
  done

(* Satellite QCheck property: every suite adversary (plus
   greedy-confusion) crafts a |faulty| x n matrix and never raises, for
   random (n, f, faulty) including the n = f edge. *)
let test_craft_total_qcheck =
  qcheck ~count:100 "craft is total: |faulty| x n, any (n, f, faulty)"
    QCheck.(triple (int_range 1 6) (int_range 0 6) small_int)
    (fun (n, f_raw, seed) ->
      let f = f_raw mod (n + 1) in
      let rng = Stdx.Rng.create seed in
      let size = if f = 0 then 0 else Stdx.Rng.int rng (f + 1) in
      let faulty =
        Array.of_list (Stdx.Rng.sample_without_replacement rng size n)
      in
      let spec =
        Algo.Combinators.with_claimed_resilience
          (Counting.Trivial.follow_leader ~n ~c:4)
          ~f
      in
      let states = Array.init n (fun _ -> spec.Algo.Spec.random_state rng) in
      List.for_all
        (fun adv ->
          let crafter = Reference.fresh adv in
          let adv_rng = Stdx.Rng.split rng in
          List.for_all
            (fun round ->
              let msgs =
                crafter.Reference.craft ~spec ~rng:adv_rng ~round ~states
                  ~faulty
              in
              Array.length msgs = Array.length faulty
              && Array.for_all (fun row -> Array.length row = n) msgs)
            [ 0; 1; 2; 3 ])
        (Sim.Adversary.registry ()))

let test_greedy_confusion_runs () =
  let adv = Sim.Adversary.greedy_confusion ~pool:2 () in
  let msgs = craft_once adv in
  check Alcotest.int "matrix shape" 2 (Array.length msgs)

(* Regression: with every node faulty there is no correct node to
   impersonate; split_brain indexed correct.(0) and mimic reduced modulo
   the (zero) number of correct nodes, so both crashed. The fallback is
   to replay the sender's own state. *)
let all_faulty_spec = Algo.Combinators.with_claimed_resilience leader ~f:4

let test_adversaries_all_faulty_craft () =
  List.iter
    (fun adv ->
      let name = Sim.Adversary.name adv in
      let crafter = Reference.fresh adv in
      let rng = Stdx.Rng.create 5 in
      let states = [| 4; 0; 3; 1 |] in
      let msgs =
        crafter.Reference.craft ~spec:all_faulty_spec ~rng ~round:0 ~states
          ~faulty:[| 0; 1; 2; 3 |]
      in
      check Alcotest.int (name ^ ": one row per faulty node") 4
        (Array.length msgs);
      Array.iteri
        (fun fi row ->
          Array.iter
            (fun v ->
              check Alcotest.int
                (name ^ ": no correct victim -> replays own state")
                states.(fi) v)
            row)
        msgs)
    [
      Sim.Adversary.split_brain ();
      Sim.Adversary.mimic ~offset:1 ();
      Sim.Adversary.replay_correct ~delay:2 ();
    ]

let test_run_all_nodes_faulty () =
  List.iter
    (fun adv ->
      let name = Sim.Adversary.name adv in
      (* full-trace path must not raise... *)
      let run =
        Sim.Network.run ~spec:all_faulty_spec ~adversary:adv
          ~faulty:[ 0; 1; 2; 3 ] ~rounds:12 ~seed:3 ()
      in
      check (Alcotest.list Alcotest.int) (name ^ ": no correct ids") []
        (Sim.Network.correct_ids run);
      (* ...and with no correct nodes the verdict is vacuous, on both the
         offline checker and the streaming engine *)
      let offline = Sim.Stabilise.of_run ~min_suffix:4 run in
      let outcome =
        Sim.Engine.run ~min_suffix:4 ~spec:all_faulty_spec
          ~schedule:
            (Sim.Schedule.static ~adversary:adv ~faulty:[ 0; 1; 2; 3 ]
               ~rounds:12)
          ~seed:3 ()
      in
      check Alcotest.bool (name ^ ": vacuously stabilized (offline)") true
        (Sim.Stabilise.equal_verdict (Sim.Stabilise.Stabilized 0) offline);
      check Alcotest.bool (name ^ ": vacuously stabilized (engine)") true
        (Sim.Stabilise.equal_verdict (Sim.Stabilise.Stabilized 0)
           outcome.Sim.Engine.verdict))
    [
      Sim.Adversary.split_brain ();
      Sim.Adversary.mimic ~offset:1 ();
      Sim.Adversary.replay_correct ~delay:2 ();
      Sim.Adversary.random_equivocate ();
      Sim.Adversary.greedy_confusion ~pool:2 ();
    ]

(* ------------------------------------------------------------------ *)
(* Stabilisation detection                                              *)
(* ------------------------------------------------------------------ *)

let mk_outputs rows = Array.of_list (List.map Array.of_list rows)

let test_stabilise_clean () =
  let outputs = mk_outputs [ [ 0; 0 ]; [ 1; 1 ]; [ 2; 2 ]; [ 0; 0 ]; [ 1; 1 ] ] in
  check Alcotest.bool "immediately counting" true
    (Sim.Stabilise.equal_verdict (Sim.Stabilise.Stabilized 0)
       (Sim.Stabilise.of_outputs ~c:3 ~correct:[ 0; 1 ] ~min_suffix:2 outputs))

let test_stabilise_with_prefix () =
  let outputs =
    mk_outputs
      [ [ 2; 0 ]; [ 1; 1 ]; [ 0; 2 ]; [ 1; 1 ]; [ 2; 2 ]; [ 0; 0 ]; [ 1; 1 ] ]
  in
  check Alcotest.bool "stabilises at 3" true
    (Sim.Stabilise.equal_verdict (Sim.Stabilise.Stabilized 3)
       (Sim.Stabilise.of_outputs ~c:3 ~correct:[ 0; 1 ] ~min_suffix:2 outputs))

let test_stabilise_needs_increment () =
  let outputs = mk_outputs [ [ 1; 1 ]; [ 1; 1 ]; [ 1; 1 ]; [ 1; 1 ] ] in
  check Alcotest.bool "agreement without counting is not stabilisation" true
    (Sim.Stabilise.equal_verdict Sim.Stabilise.Not_stabilized
       (Sim.Stabilise.of_outputs ~c:3 ~correct:[ 0; 1 ] ~min_suffix:2 outputs))

let test_stabilise_needs_agreement () =
  let outputs = mk_outputs [ [ 0; 1 ]; [ 1; 2 ]; [ 2; 0 ]; [ 0; 1 ] ] in
  check Alcotest.bool "counting without agreement is not stabilisation" true
    (Sim.Stabilise.equal_verdict Sim.Stabilise.Not_stabilized
       (Sim.Stabilise.of_outputs ~c:3 ~correct:[ 0; 1 ] ~min_suffix:2 outputs))

let test_stabilise_min_suffix () =
  let outputs = mk_outputs [ [ 0; 1 ]; [ 0; 0 ]; [ 1; 1 ]; [ 2; 2 ] ] in
  check Alcotest.bool "clean suffix shorter than min_suffix is rejected" true
    (Sim.Stabilise.equal_verdict Sim.Stabilise.Not_stabilized
       (Sim.Stabilise.of_outputs ~c:3 ~correct:[ 0; 1 ] ~min_suffix:3 outputs));
  check Alcotest.bool "and accepted when long enough" true
    (Sim.Stabilise.equal_verdict (Sim.Stabilise.Stabilized 1)
       (Sim.Stabilise.of_outputs ~c:3 ~correct:[ 0; 1 ] ~min_suffix:2 outputs))

let test_stabilise_ignores_faulty_columns () =
  let outputs = mk_outputs [ [ 0; 9 ]; [ 1; 9 ]; [ 2; 9 ]; [ 0; 9 ] ] in
  check Alcotest.bool "faulty output ignored" true
    (Sim.Stabilise.equal_verdict (Sim.Stabilise.Stabilized 0)
       (Sim.Stabilise.of_outputs ~c:3 ~correct:[ 0 ] ~min_suffix:2 outputs))

(* A synthetic generator: random garbage prefix followed by a clean
   counting suffix; the detector must find the seam. *)
let test_stabilise_finds_seam =
  qcheck "detector finds the garbage/counting seam"
    QCheck.(triple small_int (int_range 0 20) (int_range 5 30))
    (fun (seed, garbage, clean) ->
      let c = 4 in
      let rng = Stdx.Rng.create seed in
      let prefix =
        List.init garbage (fun _ ->
            [ Stdx.Rng.int rng c; Stdx.Rng.int rng c ])
      in
      let start = Stdx.Rng.int rng c in
      let suffix = List.init clean (fun i -> [ (start + i) mod c; (start + i) mod c ]) in
      let outputs = mk_outputs (prefix @ suffix) in
      match Sim.Stabilise.of_outputs ~c ~correct:[ 0; 1 ] ~min_suffix:4 outputs with
      | Sim.Stabilise.Stabilized t -> t <= garbage
      | Sim.Stabilise.Not_stabilized -> clean - 1 < 4)

(* ------------------------------------------------------------------ *)
(* Online detector                                                      *)
(* ------------------------------------------------------------------ *)

(* The incremental detector must agree with the offline backwards walk
   on EVERY prefix of a random trace, not just the final one. Traces mix
   clean counting steps with random rows so seams land everywhere. *)
let test_online_matches_offline =
  qcheck ~count:200 "online detector == offline checker on every prefix"
    QCheck.(pair small_int (int_range 1 6))
    (fun (seed, min_suffix) ->
      let c = 4 in
      let rng = Stdx.Rng.create seed in
      let len = 2 + Stdx.Rng.int rng 40 in
      let rows = Array.make len [||] in
      let v = ref 0 in
      for i = 0 to len - 1 do
        if i = 0 || Stdx.Rng.int rng 10 < 3 then begin
          rows.(i) <- [| Stdx.Rng.int rng c; Stdx.Rng.int rng c |];
          v := rows.(i).(0)
        end
        else begin
          v := (!v + 1) mod c;
          rows.(i) <- [| !v; !v |]
        end
      done;
      let det = Sim.Online.create ~c ~correct:[ 0; 1 ] ~min_suffix () in
      let ok = ref true in
      Array.iteri
        (fun i row ->
          Sim.Online.observe det ~round:i row;
          let offline =
            Sim.Stabilise.of_outputs ~c ~correct:[ 0; 1 ] ~min_suffix
              (Array.sub rows 0 (i + 1))
          in
          if not (Sim.Online.equal_verdict offline (Sim.Online.verdict det))
          then ok := false)
        rows;
      !ok)

let test_online_empty_correct_is_vacuous () =
  let det = Sim.Online.create ~c:3 ~correct:[] ~min_suffix:2 () in
  for r = 0 to 4 do
    Sim.Online.observe det ~round:r [| r; 2 * r |]
  done;
  check Alcotest.bool "no correct nodes: vacuously stabilized at 0" true
    (Sim.Online.equal_verdict (Sim.Stabilise.Stabilized 0)
       (Sim.Online.verdict det))

let test_online_rejects_round_gaps () =
  let det = Sim.Online.create ~c:3 ~correct:[ 0 ] ~min_suffix:1 () in
  Sim.Online.observe det ~round:0 [| 0 |];
  check Alcotest.bool "skipping a round is an error" true
    (try Sim.Online.observe det ~round:2 [| 2 |]; false
     with Invalid_argument _ -> true)

let test_online_window_bounds_memory () =
  let det = Sim.Online.create ~window:3 ~c:5 ~correct:[ 0 ] ~min_suffix:1 () in
  for r = 0 to 9 do
    Sim.Online.observe det ~round:r [| r mod 5 |]
  done;
  let recent = Sim.Online.recent det in
  check Alcotest.int "window keeps 3 rows" 3 (List.length recent);
  check (Alcotest.list Alcotest.int) "oldest first" [ 7; 8; 9 ]
    (List.map fst recent)

(* ------------------------------------------------------------------ *)
(* Engine: streaming vs full horizon vs offline checker                 *)
(* ------------------------------------------------------------------ *)

(* Engine and Stabilise.of_run agree verdict-for-verdict across
   adversaries x fault sets x seeds, for a trivial algorithm, the
   randomised counter, a Boost.construct instance and the sampled
   pulling counter. Full_horizon must ALWAYS equal the offline checker,
   and Streaming must equal it on the trace cut where the run stopped.
   For clean-after-exit algorithms Streaming also matches the full
   trace's verdict; the sampled counter keeps a residual per-round
   failure probability (Theorem 4), so a run may break after its early
   exit and [~clean_after_exit:false] drops that check. *)
let assert_differential ?(clean_after_exit = true) ~label ~rounds ~min_suffix
    spec =
  let fault_sets =
    Sim.Harness.default_fault_sets ~n:spec.Algo.Spec.n ~f:spec.Algo.Spec.f
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
              let run =
                Sim.Network.run ~spec ~adversary ~faulty ~rounds ~seed ()
              in
              let offline = Sim.Stabilise.of_run ~min_suffix run in
              let schedule = Sim.Schedule.static ~adversary ~faulty ~rounds in
              let full =
                Sim.Engine.run ~mode:Sim.Engine.Full_horizon ~min_suffix ~spec
                  ~schedule ~seed ()
              in
              let stream =
                Sim.Engine.run ~mode:Sim.Engine.Streaming ~min_suffix ~spec
                  ~schedule ~seed ()
              in
              check Alcotest.bool (ctx ^ ": full-horizon == offline") true
                (Sim.Stabilise.equal_verdict offline
                   full.Sim.Engine.verdict);
              let prefix =
                Array.sub run.Sim.Network.outputs 0
                  (stream.Sim.Engine.rounds_simulated + 1)
              in
              check Alcotest.bool (ctx ^ ": streaming == offline on its prefix")
                true
                (Sim.Stabilise.equal_verdict
                   (Sim.Stabilise.of_outputs ~c:spec.Algo.Spec.c
                      ~correct:(Sim.Network.correct_ids run) ~min_suffix prefix)
                   stream.Sim.Engine.verdict);
              if clean_after_exit then
                check Alcotest.bool (ctx ^ ": streaming == offline") true
                  (Sim.Stabilise.equal_verdict offline
                     stream.Sim.Engine.verdict);
              check Alcotest.bool (ctx ^ ": full horizon never early-exits")
                true
                ((not full.Sim.Engine.early_exit)
                && full.Sim.Engine.rounds_simulated = rounds);
              check Alcotest.bool (ctx ^ ": streaming stays within horizon")
                true
                (stream.Sim.Engine.rounds_simulated <= rounds
                && stream.Sim.Engine.early_exit
                   = (stream.Sim.Engine.rounds_simulated < rounds)))
            [ 1; 2; 3; 4; 5 ])
        fault_sets)
    [
      Sim.Adversary.split_brain ();
      Sim.Adversary.random_equivocate ();
      Sim.Adversary.stuck ();
    ]

let test_differential_trivial () =
  let spec =
    Algo.Combinators.with_claimed_resilience
      (Counting.Trivial.follow_leader ~n:4 ~c:5)
      ~f:1
  in
  assert_differential ~label:"follow-leader" ~rounds:200 ~min_suffix:16 spec

let test_differential_rand_counter () =
  assert_differential ~label:"rand-counter" ~rounds:400 ~min_suffix:16
    (Counting.Rand_counter.make ~n:4 ~f:1)

let test_differential_boost_a41 () =
  let tower =
    Counting.Plan.plan_tower_exn ~target_c:3
      (Counting.Plan.corollary1_levels ~f:1)
  in
  let (Algo.Spec.Packed spec) = Counting.Build.tower tower in
  assert_differential ~label:"A(4,1)" ~rounds:2600 ~min_suffix:64 spec

(* The sampled pulling counter on four single-node blocks: a pulled read
   is a per-puller view of the broadcast vector, so its streaming and
   full-horizon runs obey the engine's verdict contract. *)
let test_differential_sampled () =
  assert_differential ~clean_after_exit:false ~label:"sampled A(4,1)"
    ~rounds:200 ~min_suffix:16
    (Pulling.Sampled.construct ~inner:(Counting.Trivial.single ~c:2304) ~k:4
       ~big_f:1 ~big_c:2 ~samples:3)
      .Pulling.Sampled.spec

let test_engine_early_exit () =
  let outcome =
    Sim.Engine.run ~min_suffix:16 ~spec:leader
      ~schedule:
        (Sim.Schedule.static ~adversary:(Sim.Adversary.benign ()) ~faulty:[]
           ~rounds:1000)
      ~seed:1 ()
  in
  check Alcotest.bool "stabilises immediately" true
    (match outcome.Sim.Engine.verdict with
    | Sim.Stabilise.Stabilized t -> t <= 1
    | Sim.Stabilise.Not_stabilized -> false);
  check Alcotest.bool "early exit flagged" true outcome.Sim.Engine.early_exit;
  check Alcotest.bool "simulated only seam + min_suffix rounds" true
    (outcome.Sim.Engine.rounds_simulated < 30);
  check Alcotest.int "horizon recorded" 1000 outcome.Sim.Engine.horizon

let test_engine_matches_network_metadata () =
  let outcome =
    Sim.Engine.run ~mode:Sim.Engine.Full_horizon ~spec:leader
      ~schedule:
        (Sim.Schedule.static ~adversary:(Sim.Adversary.benign ()) ~faulty:[]
           ~rounds:10)
      ~seed:1 ()
  in
  let run =
    Sim.Network.run ~spec:leader ~adversary:(Sim.Adversary.benign ())
      ~faulty:[] ~rounds:10 ~seed:1 ()
  in
  check Alcotest.int "messages per round" run.Sim.Network.messages_per_round
    outcome.Sim.Engine.messages_per_round;
  check (Alcotest.array Alcotest.int) "final states = last trace row"
    run.Sim.Network.states.(10) outcome.Sim.Engine.final_states

(* ------------------------------------------------------------------ *)
(* Harness                                                              *)
(* ------------------------------------------------------------------ *)

let test_default_fault_sets () =
  let sets = Sim.Harness.default_fault_sets ~n:8 ~f:2 in
  check Alcotest.bool "contains empty set" true (List.mem [] sets);
  check Alcotest.bool "all within resilience" true
    (List.for_all (fun s -> List.length s <= 2) sets);
  check Alcotest.bool "all ids valid" true
    (List.for_all (List.for_all (fun v -> v >= 0 && v < 8)) sets)

let test_spread_fault_set () =
  check (Alcotest.list Alcotest.int) "spread over 12" [ 0; 4; 8 ]
    (Sim.Harness.spread_fault_set ~n:12 ~f:3);
  check (Alcotest.list Alcotest.int) "f=0 empty" []
    (Sim.Harness.spread_fault_set ~n:12 ~f:0)

let test_sweep_aggregates () =
  let spec = Counting.Trivial.follow_leader ~n:4 ~c:3 in
  let config =
    Sim.Harness.Config.(default |> with_seeds [ 1; 2 ] |> with_rounds 30)
  in
  let agg =
    Sim.Harness.run ~config ~spec ~adversaries:[ Sim.Adversary.benign () ] ()
  in
  check Alcotest.bool "all stabilized" true agg.Sim.Harness.all_stabilized;
  check Alcotest.int "2 runs (one fault set, two seeds)" 2
    (List.length agg.Sim.Harness.outcomes);
  check Alcotest.bool "worst bounded by trivial T" true
    (match agg.Sim.Harness.worst with Some w -> w <= 1 | None -> false)

let test_resolve_min_suffix () =
  (* default max(2c, 16), capped by rounds/4, floored at c *)
  check Alcotest.int "long horizon keeps the default" 16
    (Sim.Min_suffix.resolve ~c:2 ~rounds:100 None);
  check Alcotest.int "short horizon caps at rounds/4" 10
    (Sim.Min_suffix.resolve ~c:2 ~rounds:40 None);
  check Alcotest.int "cap never drops below c" 16
    (Sim.Min_suffix.resolve ~c:16 ~rounds:23 None);
  check Alcotest.int "explicit request floored at c too" 16
    (Sim.Min_suffix.resolve ~c:16 ~rounds:23 (Some 4));
  check Alcotest.bool "horizon below c is an error" true
    (try ignore (Sim.Min_suffix.resolve ~c:16 ~rounds:10 None); false
     with Invalid_argument _ -> true)

(* Regression for the silent min_suffix clamp: a deterministic counter
   whose outputs are periodic with period 8 must never be accepted as a
   mod-16 counter. Before the fix, sweep clamped min_suffix down to
   rounds/4 = 5 < c, so the <16-round clean suffix before the wrap-around
   glitch passed as stabilisation. *)
let periodic_spec : int Algo.Spec.t =
  {
    Algo.Spec.name = "periodic-8-mod-16";
    n = 2;
    f = 0;
    c = 16;
    deterministic = true;
    state_bits = 3;
    equal_state = Int.equal;
    compare_state = Int.compare;
    pp_state = Format.pp_print_int;
    random_state = (fun _ -> 0);
    all_states = Some (List.init 8 Fun.id);
    transition = (fun ~self:_ ~rng:_ received -> (received.(0) + 1) mod 8);
    output = (fun ~self:_ s -> s);
    codec = None;
  }
  |> Algo.Spec.with_derived_codec

let test_sweep_rejects_shorter_period () =
  (* The trap really is armed: the trace has a clean suffix of 7 rounds,
     so the seed code's silent clamp to rounds/4 = 5 declared Stabilized. *)
  let run =
    Sim.Network.run ~spec:periodic_spec ~adversary:(Sim.Adversary.benign ())
      ~faulty:[] ~rounds:23 ~seed:1 ()
  in
  check Alcotest.bool "old clamp would have accepted this trace" true
    (Sim.Stabilise.equal_verdict (Sim.Stabilise.Stabilized 16)
       (Sim.Stabilise.of_run ~min_suffix:5 run));
  let agg =
    let config =
      Sim.Harness.Config.(
        default |> with_fault_sets [ [] ]
        |> with_seeds [ 1; 2; 3 ]
        |> with_rounds 23)
    in
    Sim.Harness.run ~config ~spec:periodic_spec
      ~adversaries:[ Sim.Adversary.benign () ]
      ()
  in
  List.iter
    (fun (o : Sim.Harness.outcome) ->
      check Alcotest.bool
        (Printf.sprintf "seed %d: period-8 counter not mod-16 counting" o.seed)
        true
        (Sim.Stabilise.equal_verdict Sim.Stabilise.Not_stabilized o.verdict))
    agg.Sim.Harness.outcomes;
  check Alcotest.bool "horizon shorter than one period raises" true
    (try
       let config =
         Sim.Harness.Config.(
           default |> with_fault_sets [ [] ] |> with_seeds [ 1 ]
           |> with_rounds 10)
       in
       ignore
         (Sim.Harness.run ~config ~spec:periodic_spec
            ~adversaries:[ Sim.Adversary.benign () ]
            ());
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Parallel determinism: the Stdx.Pool contract says a sweep at any
   jobs count is outcome-for-outcome identical to jobs = 1 — same
   order, same verdicts, same rounds_simulated. Exercised on a
   deterministic spec, a randomised one (coin flips are seeded per run
   inside Engine.run, so scheduling cannot perturb them), and a boosted
   tower. REPRO_JOBS forces a specific worker count. *)

let parallel_jobs =
  match Sys.getenv_opt "REPRO_JOBS" with
  | Some s -> ( match int_of_string_opt (String.trim s) with
    | Some j when j >= 1 -> j
    | _ -> 8)
  | None -> 8

let default_jobs_ladder = List.sort_uniq compare [ 2; 4; 8; parallel_jobs ]

let check_jobs_invariant ?(jobs_ladder = default_jobs_ladder) ~name ~config
    ~spec ~adversaries () =
  let at ~jobs =
    let config = Sim.Harness.Config.with_jobs jobs config in
    Sim.Harness.run ~config ~spec ~adversaries ()
  in
  let seq = at ~jobs:1 in
  List.iter
    (fun jobs ->
      check Alcotest.bool
        (Printf.sprintf "%s: outcomes identical at jobs=%d" name jobs)
        true
        (at ~jobs = seq))
    jobs_ladder

let test_parallel_matches_sequential_trivial () =
  check_jobs_invariant ~name:"follow-leader"
    ~config:
      Sim.Harness.Config.(
        default |> with_seeds [ 1; 2; 3 ] |> with_rounds 60)
    ~spec:(Counting.Trivial.follow_leader ~n:4 ~c:3)
    ~adversaries:(Sim.Adversary.standard_suite ())
    ()

let test_parallel_matches_sequential_randomised () =
  check_jobs_invariant ~name:"rand-counter"
    ~config:
      Sim.Harness.Config.(
        default |> with_seeds [ 1; 2; 3; 4 ] |> with_rounds 600)
    ~spec:(Counting.Rand_counter.make ~n:4 ~f:1)
    ~adversaries:[ Sim.Adversary.benign (); Sim.Adversary.random_equivocate () ]
    ()

let test_parallel_matches_sequential_boosted () =
  let boosted =
    Counting.Boost.construct ~inner:(Counting.Trivial.single ~c:2304) ~k:4
      ~big_f:1 ~big_c:2
  in
  check_jobs_invariant ~name:"boosted A(4,1)"
    ~jobs_ladder:[ parallel_jobs ]
    ~config:
      Sim.Harness.Config.(
        default
        |> with_fault_sets [ []; [ 0 ] ]
        |> with_seeds [ 1; 2 ] |> with_rounds 1500)
    ~spec:boosted.Counting.Boost.spec
    ~adversaries:[ Sim.Adversary.split_brain (); Sim.Adversary.stuck () ]
    ()

let test_sweep_streaming_saves_rounds () =
  let spec = Counting.Trivial.follow_leader ~n:4 ~c:3 in
  let config =
    Sim.Harness.Config.(default |> with_seeds [ 1; 2 ] |> with_rounds 400)
  in
  let agg =
    Sim.Harness.run ~config ~spec ~adversaries:[ Sim.Adversary.benign () ] ()
  in
  check Alcotest.bool "early exit well before the horizon" true
    (agg.Sim.Harness.total_rounds_simulated
    < List.length agg.Sim.Harness.outcomes * 400 / 4);
  check Alcotest.int "horizon recorded" 400 agg.Sim.Harness.horizon

let suite =
  [
    ( "sim.network",
      [
        case "run shapes" test_run_shapes;
        case "reproducible" test_run_reproducible;
        case "seed matters" test_run_seed_matters;
        case "explicit init" test_run_explicit_init;
        case "rejects bad faulty sets" test_run_rejects_bad_faulty;
        case "correct ids" test_correct_ids;
        case "benign equals faultless" test_benign_equals_faultless;
      ] );
    ( "sim.adversary",
      [
        case "matrix shapes" test_adversary_matrix_shapes;
        case "benign sends truth" test_benign_sends_truth;
        case "stuck freezes" test_stuck_freezes;
        case "split-brain splits" test_split_brain_splits;
        case "mimic copies correct nodes" test_mimic_copies_correct;
        case "random equivocation varies" test_random_equivocate_varies;
        case "hostile suite excludes benign" test_hostile_suite_excludes_benign;
        case "hostile suite is structural" test_hostile_suite_structural;
        case "negative delay rejected" test_delay_validated;
        case "negative greedy pool rejected" test_pool_validated;
        case "stale delay 0 is truthful" test_stale_delay_zero_truthful;
        case "delay history fallback" test_delay_history_fallback;
        test_craft_total_qcheck;
        case "greedy confusion runs" test_greedy_confusion_runs;
        case "all nodes faulty: craft falls back" test_adversaries_all_faulty_craft;
        case "all nodes faulty: runs end to end" test_run_all_nodes_faulty;
      ] );
    ( "sim.online",
      [
        test_online_matches_offline;
        case "empty correct set is vacuous" test_online_empty_correct_is_vacuous;
        case "rejects round gaps" test_online_rejects_round_gaps;
        case "window bounds memory" test_online_window_bounds_memory;
      ] );
    ( "sim.engine",
      [
        case "early exit" test_engine_early_exit;
        case "metadata matches Network.run" test_engine_matches_network_metadata;
        case "differential: follow-leader" test_differential_trivial;
        case "differential: rand-counter" test_differential_rand_counter;
        case "differential: sampled pulling" test_differential_sampled;
        Alcotest.test_case "differential: A(4,1) boost" `Slow
          test_differential_boost_a41;
      ] );
    ( "sim.stabilise",
      [
        case "clean from start" test_stabilise_clean;
        case "garbage prefix" test_stabilise_with_prefix;
        case "agreement alone insufficient" test_stabilise_needs_increment;
        case "counting alone insufficient" test_stabilise_needs_agreement;
        case "min_suffix honoured" test_stabilise_min_suffix;
        case "faulty columns ignored" test_stabilise_ignores_faulty_columns;
        test_stabilise_finds_seam;
      ] );
    ( "sim.harness",
      [
        case "default fault sets" test_default_fault_sets;
        case "spread fault set" test_spread_fault_set;
        case "sweep aggregates" test_sweep_aggregates;
        case "resolve_min_suffix contract" test_resolve_min_suffix;
        case "shorter-period counter rejected" test_sweep_rejects_shorter_period;
        case "streaming sweep saves rounds" test_sweep_streaming_saves_rounds;
        case "jobs determinism: follow-leader"
          test_parallel_matches_sequential_trivial;
        case "jobs determinism: randomised counter"
          test_parallel_matches_sequential_randomised;
        case "jobs determinism: boosted tower"
          test_parallel_matches_sequential_boosted;
      ] );
  ]
