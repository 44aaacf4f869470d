(* Tests for the phase-king instruction sets (Table 2): Lemma 4
   (agreement establishment), Lemma 5 (agreement persistence), and the
   agreement predicate and register harness both lemmas are checked
   with. *)

let check = Alcotest.check
let case name f = Alcotest.test_case name `Quick f

let qcheck ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

let reg a d = { Counting.Phase_king.a; d }

(* A fabricator driven by a seeded rng: arbitrary, per-recipient values. *)
let random_fabricator ~cap seed =
  let rng = Stdx.Rng.create seed in
  fun ~round:_ ~recipient:_ ~faulty:_ ->
    let raw = Stdx.Rng.int rng (cap + 2) in
    if raw >= cap then None else Some raw

let silent_fabricator ~round:_ ~recipient:_ ~faulty:_ = None

(* ------------------------------------------------------------------ *)
(* step: basics                                                         *)
(* ------------------------------------------------------------------ *)

let test_tau () =
  check Alcotest.int "tau(F=3) = 15" 15 (Counting.Phase_king.tau ~big_f:3);
  check Alcotest.int "tau(F=0) = 6" 6 (Counting.Phase_king.tau ~big_f:0)

let test_king_of_index () =
  check Alcotest.int "I_0..I_2 belong to king 0" 0 (Counting.Phase_king.king_of_index 2);
  check Alcotest.int "I_3 belongs to king 1" 1 (Counting.Phase_king.king_of_index 3)

(* The register increment, through I_{3l+2} of a confident node and
   I_{3l} of a reset one backed by a quorum. *)
let test_increment () =
  let run ~index ~self =
    (Counting.Phase_king.instruction ~cap:4
       (Counting.Phase_king.Table2 { big_n = 1; big_f = 0 })
       ~index ~self ~votes:[| self.Counting.Phase_king.a |] ~king:None)
      .Counting.Phase_king.a
  in
  check (Alcotest.option Alcotest.int) "wraps" (Some 0)
    (run ~index:2 ~self:(reg (Some 3) true));
  check (Alcotest.option Alcotest.int) "infinity fixed" None
    (run ~index:0 ~self:(reg None true))

let test_step_index_validation () =
  let received = Array.make 4 (Some 0) in
  check Alcotest.bool "index >= tau rejected" true
    (try
       ignore
         (Counting.Phase_king.step ~cap:3 ~big_n:4 ~big_f:1 ~index:9
            ~self:(reg (Some 0) true) ~received);
       false
     with Invalid_argument _ -> true)

let test_step_reset_on_low_support () =
  (* I_0 with N = 4, F = 1: our value must be echoed by >= 3 nodes. *)
  let received = [| Some 0; Some 1; Some 2; Some 2 |] in
  let r =
    Counting.Phase_king.step ~cap:3 ~big_n:4 ~big_f:1 ~index:0
      ~self:(reg (Some 0) true) ~received
  in
  check (Alcotest.option Alcotest.int) "reset to infinity" None r.Counting.Phase_king.a

let test_step_keeps_on_quorum () =
  let received = [| Some 0; Some 0; Some 0; Some 2 |] in
  let r =
    Counting.Phase_king.step ~cap:3 ~big_n:4 ~big_f:1 ~index:0
      ~self:(reg (Some 0) true) ~received
  in
  check (Alcotest.option Alcotest.int) "kept and incremented" (Some 1)
    r.Counting.Phase_king.a

let test_step_support_bit () =
  let received = [| Some 1; Some 1; Some 1; Some 0 |] in
  let r =
    Counting.Phase_king.step ~cap:3 ~big_n:4 ~big_f:1 ~index:1
      ~self:(reg (Some 1) false) ~received
  in
  check Alcotest.bool "d set on quorum" true r.Counting.Phase_king.d;
  check (Alcotest.option Alcotest.int) "adopts smallest >F-supported, then ++"
    (Some 2) r.Counting.Phase_king.a

let test_step_adopts_min_supported () =
  (* values 2 (x2) and 1 (x2): both clear the > F = 1 bar; min is 1. *)
  let received = [| Some 2; Some 2; Some 1; Some 1 |] in
  let r =
    Counting.Phase_king.step ~cap:3 ~big_n:4 ~big_f:1 ~index:1
      ~self:(reg (Some 2) false) ~received
  in
  check (Alcotest.option Alcotest.int) "min supported value + 1" (Some 2)
    r.Counting.Phase_king.a

let test_step_king_imposes () =
  (* I_2: a = inf, so adopt king (node 0)'s value. *)
  let received = [| Some 1; None; Some 2; Some 0 |] in
  let r =
    Counting.Phase_king.step ~cap:3 ~big_n:4 ~big_f:1 ~index:2
      ~self:(reg None false) ~received
  in
  check (Alcotest.option Alcotest.int) "king value + 1" (Some 2)
    r.Counting.Phase_king.a;
  check Alcotest.bool "d raised" true r.Counting.Phase_king.d

let test_step_king_ignored_when_confident () =
  let received = [| Some 1; Some 2; Some 2; Some 2 |] in
  let r =
    Counting.Phase_king.step ~cap:3 ~big_n:4 ~big_f:1 ~index:2
      ~self:(reg (Some 2) true) ~received
  in
  check (Alcotest.option Alcotest.int) "keeps own value + 1" (Some 0)
    r.Counting.Phase_king.a

let test_step_king_infinite_value () =
  (* King shows infinity: imposed value is min{C, inf} = C, then +1 mod C. *)
  let received = [| None; Some 1; Some 1; Some 1 |] in
  let r =
    Counting.Phase_king.step ~cap:3 ~big_n:4 ~big_f:1 ~index:2
      ~self:(reg None false) ~received
  in
  check (Alcotest.option Alcotest.int) "C + 1 mod C" (Some 1)
    r.Counting.Phase_king.a

let test_step_clamps_out_of_range () =
  (* A Byzantine node claiming a = 99 must count as the reset state. *)
  let received = [| Some 0; Some 0; Some 99; Some 0 |] in
  let r =
    Counting.Phase_king.step ~cap:3 ~big_n:4 ~big_f:1 ~index:0
      ~self:(reg (Some 0) true) ~received
  in
  check (Alcotest.option Alcotest.int) "quorum of three zeros still holds"
    (Some 1) r.Counting.Phase_king.a

(* An own register no honest node can hold is rejected with a named
   [Invalid_argument] at every instruction kind. *)
let test_step_rejects_out_of_range_own () =
  let received = Array.make 7 (Some 1) in
  List.iter
    (fun (a, index) ->
      match
        Counting.Phase_king.step ~cap:5 ~big_n:7 ~big_f:2 ~index
          ~self:(reg (Some a) false) ~received
      with
      | _ -> Alcotest.failf "own register %d accepted at I_%d" a index
      | exception Invalid_argument msg ->
        check Alcotest.string
          (Printf.sprintf "own register %d at I_%d" a index)
          (Printf.sprintf
             "Phase_king.instruction: own register %d outside [0,5)" a)
          msg)
    [ (7, 0); (7, 1); (7, 2); (5, 4); (-1, 5) ]

(* ------------------------------------------------------------------ *)
(* Threshold edges: Table 2, ablation A3 and Lemma 8 on hand-built
   vote vectors.                                                        *)
(* ------------------------------------------------------------------ *)

(* A vote vector with [count] copies of each [value], in order. *)
let votes groups =
  Array.of_list
    (List.concat_map (fun (v, count) -> List.init count (fun _ -> v)) groups)

let reg_t = Alcotest.(pair (option int) bool)
let pair r = (r.Counting.Phase_king.a, r.Counting.Phase_king.d)

(* Under every threshold pair, I_{3l+2} makes a node without a
   quorum-backed value take the king's, and leaves a confident one be. *)
let check_king_imposes label run =
  check reg_t (label ^ ": the king imposes its value") (Some 4, true)
    (run ~index:2 ~self:(reg None false) ~king:(Some 3));
  check reg_t (label ^ ": d = 0 yields to the king") (Some 4, true)
    (run ~index:5 ~self:(reg (Some 1) false) ~king:(Some 3));
  check reg_t (label ^ ": a confident node ignores the king") (Some 2, true)
    (run ~index:2 ~self:(reg (Some 1) true) ~king:(Some 3))

let test_table2_edges () =
  (* N = 7, F = 2: quorum N - F = 5, support F + 1 = 3. *)
  let step ~index ~self received =
    pair
      (Counting.Phase_king.step ~cap:5 ~big_n:7 ~big_f:2 ~index ~self
         ~received)
  in
  let own = reg (Some 1) false in
  check reg_t "N-F votes keep the register" (Some 2, false)
    (step ~index:0 ~self:own (votes [ (Some 1, 5); (Some 3, 2) ]));
  check reg_t "N-F-1 votes reset it" (None, false)
    (step ~index:0 ~self:own (votes [ (Some 1, 4); (Some 3, 3) ]));
  check reg_t "N-F votes raise d; F votes for 0 are not adopted"
    (Some 2, true)
    (step ~index:1 ~self:own (votes [ (Some 0, 2); (Some 1, 5) ]));
  check reg_t "N-F-1 votes leave d = 0; F+1 votes for 0 are adopted"
    (Some 1, false)
    (step ~index:1 ~self:own (votes [ (Some 0, 3); (Some 1, 4) ]));
  check_king_imposes "Table 2" (fun ~index ~self ~king ->
      (* node index/3 is the king; the others vote 0 *)
      let received = Array.make 7 (Some 0) in
      received.(index / 3) <- king;
      step ~index ~self received)

(* [instruction th ~index ~self groups] on the vote vector of [groups]. *)
let instruction ?(king = None) th ~index ~self groups =
  pair
    (Counting.Phase_king.instruction ~cap:5 th ~index ~self
       ~votes:(votes groups) ~king)

let test_majority_edges () =
  (* A3: quorum z > N/2, support z >= 1. *)
  let own = reg (Some 1) false in
  List.iter
    (fun big_n ->
      let th = Counting.Phase_king.Majority { big_n } in
      let half = big_n / 2 in
      check reg_t
        (Printf.sprintf "N = %d: %d votes keep the register" big_n (half + 1))
        (Some 2, false)
        (instruction th ~index:0 ~self:own
           [ (Some 1, half + 1); (None, big_n - half - 1) ]);
      check reg_t
        (Printf.sprintf "N = %d: %d votes reset it" big_n half)
        (None, false)
        (instruction th ~index:0 ~self:own
           [ (Some 1, half); (None, big_n - half) ]))
    [ 7; 8 ];
  let th = Counting.Phase_king.Majority { big_n = 7 } in
  check reg_t "a single vote is adopted" (Some 1, true)
    (instruction th ~index:1 ~self:own [ (Some 0, 1); (Some 1, 6) ]);
  check reg_t "no vote, no value" (None, false)
    (instruction th ~index:1 ~self:own [ (None, 7) ]);
  check_king_imposes "A3" (fun ~index ~self ~king ->
      instruction ~king th ~index ~self [ (Some 0, 7) ])

let test_lemma8_edges () =
  let own = reg (Some 1) false in
  List.iter
    (fun (samples, quorum) ->
      (* quorum = ceil(2M/3) *)
      let th = Counting.Phase_king.Lemma8 { samples } in
      let label fmt = Printf.sprintf ("M = %d: " ^^ fmt) samples in
      let for_own z = [ (Some 1, z); (Some 3, samples - z) ] in
      check reg_t
        (label "%d votes keep the register" quorum)
        (Some 2, false)
        (instruction th ~index:0 ~self:own (for_own quorum));
      check reg_t
        (label "%d votes reset it" (quorum - 1))
        (None, false)
        (instruction th ~index:0 ~self:own (for_own (quorum - 1)));
      check reg_t
        (label "%d votes raise d" quorum)
        (Some 2, true)
        (instruction th ~index:1 ~self:own (for_own quorum));
      check reg_t
        (label "%d votes leave d = 0" (quorum - 1))
        (Some 2, false)
        (instruction th ~index:1 ~self:own (for_own (quorum - 1)));
      check_king_imposes (label "Lemma 8") (fun ~index ~self ~king ->
          instruction ~king th ~index ~self [ (Some 0, samples) ]))
    [ (6, 4); (7, 5); (9, 6) ];
  (* The 1/3 bar is strict: M/3 votes are no support, one more is. *)
  let th = Counting.Phase_king.Lemma8 { samples = 6 } in
  check reg_t "M = 6: 2 votes for 0 are not adopted" (Some 4, false)
    (instruction th ~index:1 ~self:own [ (Some 0, 2); (Some 3, 4) ]);
  check reg_t "M = 6: 3 votes for 0 are adopted" (Some 1, false)
    (instruction th ~index:1 ~self:own [ (Some 0, 3); (Some 3, 3) ])

(* ------------------------------------------------------------------ *)
(* Lemma 5: agreement persists under any instruction set and any
   Byzantine values.                                                    *)
(* ------------------------------------------------------------------ *)

let lemma5_once ~big_n ~big_f ~cap ~x ~index ~fabricator_seed =
  let faulty = List.init big_f (fun i -> i) in
  let init =
    Array.init big_n (fun _ -> reg (Some x) true)
  in
  let trace =
    Counting.Phase_king.run_registers ~cap ~big_f ~faulty
      ~fabricator:(random_fabricator ~cap fabricator_seed)
      ~init ~start_index:index ~rounds:1
  in
  Counting.Phase_king.agreement ~cap ~faulty trace.(1)

let test_lemma5_all_indices () =
  let big_f = 2 and big_n = 8 and cap = 5 in
  for index = 0 to Counting.Phase_king.tau ~big_f - 1 do
    match lemma5_once ~big_n ~big_f ~cap ~x:3 ~index ~fabricator_seed:index with
    | Some v ->
      check Alcotest.int
        (Printf.sprintf "I_%d preserves agreement and increments" index)
        4 v
    | None -> Alcotest.failf "agreement lost after I_%d" index
  done

let test_lemma5_property =
  qcheck ~count:300 "Lemma 5: agreement persists under random adversaries"
    QCheck.(quad (int_range 0 4) (int_range 0 14) small_int (int_range 2 6))
    (fun (x, index, seed, cap) ->
      let big_f = 3 in
      let index = index mod Counting.Phase_king.tau ~big_f in
      let x = x mod cap in
      let big_n = 10 in
      match lemma5_once ~big_n ~big_f ~cap ~x ~index ~fabricator_seed:seed with
      | Some v -> v = (x + 1) mod cap
      | None -> false)

let test_lemma5_many_rounds () =
  (* Persistence composes: 100 consecutive rounds of arbitrary indices. *)
  let big_f = 1 and cap = 4 and big_n = 4 in
  let faulty = [ 2 ] in
  let init = Array.init big_n (fun _ -> reg (Some 0) true) in
  let trace =
    Counting.Phase_king.run_registers ~cap ~big_f ~faulty
      ~fabricator:(random_fabricator ~cap 99)
      ~init ~start_index:0 ~rounds:100
  in
  for t = 0 to 100 do
    match Counting.Phase_king.agreement ~cap ~faulty trace.(t) with
    | Some v ->
      check Alcotest.int (Printf.sprintf "round %d counts" t) (t mod cap) v
    | None -> Alcotest.failf "agreement lost at round %d" t
  done

(* ------------------------------------------------------------------ *)
(* Lemma 4: a full 3-round block of a non-faulty king establishes
   agreement from arbitrary register states.                            *)
(* ------------------------------------------------------------------ *)

let random_regs ~big_n ~cap seed =
  let rng = Stdx.Rng.create seed in
  Array.init big_n (fun _ ->
      let raw = Stdx.Rng.int rng (cap + 1) in
      reg (if raw = cap then None else Some raw) (Stdx.Rng.bool rng))

let lemma4_once ~big_n ~big_f ~cap ~ell ~init_seed ~fab_seed =
  let faulty = List.init big_f (fun i -> big_n - 1 - i) in
  (* kings 0..F+1 are all non-faulty here; run I_{3l}, I_{3l+1}, I_{3l+2} *)
  let init = random_regs ~big_n ~cap init_seed in
  let trace =
    Counting.Phase_king.run_registers ~cap ~big_f ~faulty
      ~fabricator:(random_fabricator ~cap fab_seed)
      ~init ~start_index:(3 * ell) ~rounds:3
  in
  Counting.Phase_king.agreement ~cap ~faulty trace.(3)

let test_lemma4_property =
  qcheck ~count:300 "Lemma 4: non-faulty king's block establishes agreement"
    QCheck.(triple (int_range 0 3) small_int small_int)
    (fun (ell, init_seed, fab_seed) ->
      let big_n = 7 and big_f = 2 and cap = 5 in
      match lemma4_once ~big_n ~big_f ~cap ~ell ~init_seed ~fab_seed with
      | Some _ -> true
      | None -> false)

let test_lemma4_silent_adversary () =
  let big_n = 7 and big_f = 2 and cap = 5 in
  for ell = 0 to big_f + 1 do
    match
      let faulty = [ 5; 6 ] in
      let init = random_regs ~big_n ~cap (ell + 1) in
      let trace =
        Counting.Phase_king.run_registers ~cap ~big_f ~faulty
          ~fabricator:silent_fabricator ~init ~start_index:(3 * ell) ~rounds:3
      in
      Counting.Phase_king.agreement ~cap ~faulty trace.(3)
    with
    | Some _ -> ()
    | None -> Alcotest.failf "silent adversary defeats king %d" ell
  done

(* ------------------------------------------------------------------ *)
(* agreement and the register harness                                  *)
(* ------------------------------------------------------------------ *)

let agreement ~faulty regs = Counting.Phase_king.agreement ~cap:5 ~faulty regs
let agreed = Alcotest.(option int)

let test_agreement_ignores_faulty () =
  let regs = [| reg (Some 2) true; reg (Some 2) true; reg None false; reg (Some 2) true |] in
  check agreed "faulty node 2 excluded" (Some 2) (agreement ~faulty:[ 2 ] regs);
  check agreed "node 2 counted" None (agreement ~faulty:[] regs)

let test_agreement_needs_d () =
  let regs = [| reg (Some 3) true; reg (Some 3) false; reg (Some 3) true |] in
  check agreed "one correct d = 0" None (agreement ~faulty:[] regs);
  check agreed "its owner faulty" (Some 3) (agreement ~faulty:[ 1 ] regs)

let test_agreement_needs_one_value () =
  check agreed "two values" None
    (agreement ~faulty:[] [| reg (Some 1) true; reg (Some 2) true |]);
  check agreed "all at infinity" None
    (agreement ~faulty:[] [| reg None true; reg None true |]);
  check agreed "no correct node" None
    (agreement ~faulty:[ 0; 1 ] [| reg (Some 1) true; reg (Some 1) true |])

(* The harness returns rounds + 1 rows starting at [init] and keeps
   faulty registers frozen; from agreement on 0, row t agrees on
   t mod cap (Lemma 5, across the wrap of the instruction index). *)
let test_run_registers_shape () =
  let cap = 5 and big_f = 1 and faulty = [ 3 ] in
  let init = Array.init 4 (fun v -> if v = 3 then reg None false else reg (Some 0) true) in
  let rounds = 2 * Counting.Phase_king.tau ~big_f in
  let trace =
    Counting.Phase_king.run_registers ~cap ~big_f ~faulty
      ~fabricator:(random_fabricator ~cap 4) ~init
      ~start_index:(Counting.Phase_king.tau ~big_f - 1) ~rounds
  in
  check Alcotest.int "rounds + 1 rows" (rounds + 1) (Array.length trace);
  check Alcotest.bool "row 0 is init" true (trace.(0) = init);
  Array.iteri
    (fun t row ->
      check Alcotest.bool (Printf.sprintf "faulty register frozen at %d" t) true
        (row.(3) = init.(3));
      check agreed (Printf.sprintf "count at round %d" t) (Some (t mod cap))
        (Counting.Phase_king.agreement ~cap ~faulty row))
    trace

let suite =
  [
    ( "phase_king.step",
      [
        case "tau" test_tau;
        case "king_of_index" test_king_of_index;
        case "increment" test_increment;
        case "index validation" test_step_index_validation;
        case "I_3l resets on low support" test_step_reset_on_low_support;
        case "I_3l keeps on quorum" test_step_keeps_on_quorum;
        case "I_3l+1 support bit" test_step_support_bit;
        case "I_3l+1 adopts min supported" test_step_adopts_min_supported;
        case "I_3l+2 king imposes" test_step_king_imposes;
        case "I_3l+2 king ignored when confident" test_step_king_ignored_when_confident;
        case "I_3l+2 with infinite king" test_step_king_infinite_value;
        case "out-of-range claims clamped" test_step_clamps_out_of_range;
        case "out-of-range own register rejected"
          test_step_rejects_out_of_range_own;
      ] );
    ( "phase_king.thresholds",
      [
        case "Table 2: N-F and F+1 edges" test_table2_edges;
        case "A3: majority and a single vote" test_majority_edges;
        case "Lemma 8: 2M/3 and the strict M/3" test_lemma8_edges;
      ] );
    ( "phase_king.lemma5",
      [
        case "all instruction sets" test_lemma5_all_indices;
        test_lemma5_property;
        case "persists over 100 rounds" test_lemma5_many_rounds;
      ] );
    ( "phase_king.lemma4",
      [ test_lemma4_property; case "silent adversary" test_lemma4_silent_adversary ]
    );
    ( "phase_king.agreement",
      [
        case "faulty registers ignored" test_agreement_ignores_faulty;
        case "needs d = 1" test_agreement_needs_d;
        case "needs one finite value" test_agreement_needs_one_value;
        case "run_registers: rows from init, faulty registers frozen"
          test_run_registers_shape;
      ] );
  ]
