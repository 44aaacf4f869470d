(* Tests for the algorithm representation, combinators and voting. *)

let check = Alcotest.check
let case name f = Alcotest.test_case name `Quick f

let qcheck ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

let trivial = Counting.Trivial.single ~c:6

(* ------------------------------------------------------------------ *)
(* Spec validation                                                      *)
(* ------------------------------------------------------------------ *)

let validates spec =
  match Algo.Spec.validate_exn spec with
  | _ -> true
  | exception Invalid_argument _ -> false

let test_validate_ok () =
  check Alcotest.bool "trivial validates" true (validates trivial)

let test_validate_bad_n () =
  let bad = { trivial with Algo.Spec.n = 0 } in
  check Alcotest.bool "n = 0 rejected" false (validates bad)

let test_validate_bad_c () =
  let bad = { trivial with Algo.Spec.c = 0 } in
  check Alcotest.bool "c = 0 rejected" false (validates bad)

let test_validate_bad_output () =
  let bad = { trivial with Algo.Spec.output = (fun ~self:_ s -> s + 100) } in
  check Alcotest.bool "out-of-range output rejected" false (validates bad)

let test_validate_bad_bits () =
  let bad = { trivial with Algo.Spec.state_bits = 1 } in
  check Alcotest.bool "understated state_bits rejected" false (validates bad)

let test_validate_bad_f () =
  let bad = { trivial with Algo.Spec.f = -1 } in
  check Alcotest.bool "f < 0 rejected" false (validates bad)

(* Validation never runs [transition]: a spec whose transition leaves
   [all_states] still validates, as the doc of [validate_exn] says. *)
let test_validate_ignores_transition () =
  let escapes =
    { trivial with Algo.Spec.transition = (fun ~self:_ ~rng:_ _ -> 1000) }
  in
  check Alcotest.bool "transition outside X accepted" true (validates escapes)

(* [validate_exn]'s reason for rejecting [spec], which must name [affix]. *)
let rejected_for affix spec =
  match Algo.Spec.validate_exn spec with
  | _ -> Alcotest.failf "accepted; expected a rejection naming %S" affix
  | exception Invalid_argument msg ->
    check Alcotest.bool msg true (Astring.String.is_infix ~affix msg)

let trivial_codec = Option.get trivial.Algo.Spec.codec

let test_validate_codec_roundtrip () =
  let codec =
    { trivial_codec with Algo.Spec.encode_state = (fun s -> (s + 1) mod 6) }
  in
  rejected_for "codec does not round-trip"
    { trivial with Algo.Spec.codec = Some codec }

let test_validate_random_code () =
  let codec = { trivial_codec with Algo.Spec.random_code = (fun _ -> 0) } in
  rejected_for "random_code diverges from random_state"
    { trivial with Algo.Spec.codec = Some codec }

let test_derived_codec_needs_all_states () =
  let leader = Counting.Trivial.follow_leader ~n:3 ~c:5 in
  check Alcotest.bool "derived from all_states" true
    (Option.is_some (Algo.Spec.with_derived_codec leader).Algo.Spec.codec);
  check Alcotest.bool "no all_states, no codec" true
    (Option.is_none
       (Algo.Spec.with_derived_codec { leader with Algo.Spec.all_states = None })
         .Algo.Spec.codec)

let test_identity_codec () =
  let transition ~self ~rng:_ received = (received.(0) + self) mod 6 in
  let output ~self:_ s = s mod 3 in
  let codec =
    Algo.Spec.identity_codec ~num_states:6 ~transition ~output ()
  in
  check Alcotest.int "encode is the identity" 4 (codec.Algo.Spec.encode_state 4);
  check Alcotest.int "decode is the identity" 5 (codec.Algo.Spec.decode_state 5);
  let kernel = codec.Algo.Spec.fresh_kernel () in
  check Alcotest.bool "every run shares one kernel" true
    (kernel == codec.Algo.Spec.fresh_kernel ());
  let rng = Stdx.Rng.create 1 in
  check Alcotest.int "step is the transition" 5
    (kernel.Algo.Spec.step ~self:2 ~rng [| 3; 0 |]);
  check Alcotest.int "step_output is output after the transition" 2
    (kernel.Algo.Spec.step_output ~self:2 ~rng [| 3; 0 |]);
  let r1 = Stdx.Rng.create 9 and r2 = Stdx.Rng.create 9 in
  for _ = 1 to 50 do
    check Alcotest.int "random_code is a uniform draw" (Stdx.Rng.int r2 6)
      (codec.Algo.Spec.random_code r1)
  done

let test_identity_codec_empty () =
  Alcotest.check_raises "no states"
    (Invalid_argument "Spec.identity_codec: num_states < 1") (fun () ->
      ignore
        (Algo.Spec.identity_codec ~num_states:0
           ~transition:(fun ~self:_ ~rng:_ _ -> 0)
           ~output:(fun ~self:_ s -> s)
           ()))

(* The reference kernel steps the states it was told about by [load]
   and [set], not the vector passed to [step]. States are codes halved. *)
let test_generic_kernel () =
  let kernel =
    Algo.Spec.generic_kernel ~n:3
      ~transition:(fun ~self ~rng:_ a -> a.(0) + a.(1) + a.(2) + self)
      ~output:(fun ~self:_ s -> s mod 7)
      ~encode_state:(fun s -> 2 * s)
      ~decode_state:(fun code -> code / 2)
      ()
  in
  let rng = Stdx.Rng.create 1 and ignored = [| 0; 0; 0 |] in
  kernel.Algo.Spec.load [| 2; 4; 6 |];
  check Alcotest.int "step of the loaded states" 12
    (kernel.Algo.Spec.step ~self:0 ~rng ignored);
  kernel.Algo.Spec.set 1 10;
  check Alcotest.int "step after a set" 20
    (kernel.Algo.Spec.step ~self:1 ~rng ignored);
  check Alcotest.int "step_output after a set" 2
    (kernel.Algo.Spec.step_output ~self:0 ~rng ignored)

(* ------------------------------------------------------------------ *)
(* Combinators                                                          *)
(* ------------------------------------------------------------------ *)

let test_claimed_resilience () =
  let leader = Counting.Trivial.follow_leader ~n:4 ~c:5 in
  let claimed = Algo.Combinators.with_claimed_resilience leader ~f:1 in
  check Alcotest.int "f overridden" 1 claimed.Algo.Spec.f;
  check Alcotest.string "name kept" leader.Algo.Spec.name claimed.Algo.Spec.name;
  check
    Alcotest.(list int)
    "shape kept"
    Algo.Spec.[ leader.n; leader.c; leader.state_bits ]
    Algo.Spec.[ claimed.n; claimed.c; claimed.state_bits ];
  check Alcotest.int "transition kept" 3
    (claimed.Algo.Spec.transition ~self:1 ~rng:(Stdx.Rng.create 1)
       [| 2; 0; 4; 1 |]);
  check Alcotest.bool "codec kept" true
    (Option.get claimed.Algo.Spec.codec == Option.get leader.Algo.Spec.codec)

let test_claimed_resilience_negative () =
  Alcotest.check_raises "f < 0"
    (Invalid_argument "Combinators.with_claimed_resilience: f < 0") (fun () ->
      ignore (Algo.Combinators.with_claimed_resilience trivial ~f:(-1)))

(* ------------------------------------------------------------------ *)
(* Voting                                                               *)
(* ------------------------------------------------------------------ *)

let test_majority_strict () =
  check Alcotest.int "3 of 5" 7 (Algo.Vote.majority_int ~default:0 [| 7; 7; 7; 1; 2 |]);
  check Alcotest.int "no strict majority -> default" 99
    (Algo.Vote.majority_int ~default:99 [| 1; 1; 2; 2 |]);
  check Alcotest.int "exactly half is not a majority" 99
    (Algo.Vote.majority_int ~default:99 [| 5; 5; 1; 2 |])

let test_majority_empty () =
  check Alcotest.int "empty -> default" 42 (Algo.Vote.majority_int ~default:42 [||])

let test_majority_singleton () =
  check Alcotest.int "singleton" 3 (Algo.Vote.majority_int ~default:0 [| 3 |])

let majority_spec_naive votes =
  (* reference implementation: count every value *)
  let n = Array.length votes in
  let best = Hashtbl.create 8 in
  Array.iter
    (fun v ->
      Hashtbl.replace best v (1 + Option.value ~default:0 (Hashtbl.find_opt best v)))
    votes;
  Hashtbl.fold
    (fun v c acc -> if 2 * c > n then Some v else acc)
    best None

let test_majority_matches_naive =
  qcheck ~count:500 "Boyer-Moore majority matches naive counting"
    QCheck.(array_of_size (Gen.int_range 0 30) (int_range 0 4))
    (fun votes ->
      let fast = Algo.Vote.majority_int ~default:(-1) votes in
      match majority_spec_naive votes with
      | Some v -> fast = v
      | None -> fast = -1)

let test_counts_int () =
  let z = Algo.Vote.counts_int ~max:4 [| 0; 1; 1; 3; 9; -2 |] in
  check (Alcotest.array Alcotest.int) "histogram ignores out of range"
    [| 1; 2; 0; 1 |] z

(* The verification pass counts the surviving candidate: 5 survives
   pairwise cancellation and occurs 3 times in 5. *)
let test_majority_verified () =
  check Alcotest.int "3 of 5 confirmed" 5
    (Algo.Vote.majority_int ~default:(-1) [| 5; 1; 5; 5; 2 |])

let suite =
  [
    ( "algo.spec",
      [
        case "validate ok" test_validate_ok;
        case "validate bad n" test_validate_bad_n;
        case "validate bad c" test_validate_bad_c;
        case "validate bad output" test_validate_bad_output;
        case "validate bad bits" test_validate_bad_bits;
        case "validate bad f" test_validate_bad_f;
        case "validate does not run transition"
          test_validate_ignores_transition;
        case "validate rejects a codec that does not round-trip"
          test_validate_codec_roundtrip;
        case "validate rejects random_code out of step with random_state"
          test_validate_random_code;
        case "with_derived_codec needs all_states"
          test_derived_codec_needs_all_states;
        case "identity_codec: codes are states, one shared kernel"
          test_identity_codec;
        case "identity_codec: num_states < 1 rejected" test_identity_codec_empty;
        case "generic_kernel steps the loaded and set states" test_generic_kernel;
      ] );
    ( "algo.combinators",
      [
        case "with_claimed_resilience overrides f only" test_claimed_resilience;
        case "with_claimed_resilience rejects f < 0"
          test_claimed_resilience_negative;
      ] );
    ( "algo.vote",
      [
        case "strict majority" test_majority_strict;
        case "empty" test_majority_empty;
        case "singleton" test_majority_singleton;
        test_majority_matches_naive;
        case "counts_int" test_counts_int;
        case "verification pass confirms the candidate" test_majority_verified;
      ] );
  ]
