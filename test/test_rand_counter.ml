(* Tests for the randomised 1-bit baseline counter (Table 1 rows [6,7]). *)

let check = Alcotest.check
let case name f = Alcotest.test_case name `Quick f
let slow_case name f = Alcotest.test_case name `Slow f

let test_validation () =
  check Alcotest.bool "f >= n/3 rejected" true
    (try ignore (Counting.Rand_counter.make ~n:6 ~f:2); false
     with Invalid_argument _ -> true);
  check Alcotest.bool "n = 1 rejected" true
    (try ignore (Counting.Rand_counter.make ~n:1 ~f:0); false
     with Invalid_argument _ -> true)

let test_shape () =
  let spec = Counting.Rand_counter.make ~n:7 ~f:2 in
  check Alcotest.int "one bit of state" 1 spec.Algo.Spec.state_bits;
  check Alcotest.int "c = 2" 2 spec.Algo.Spec.c;
  check Alcotest.bool "randomised" false spec.Algo.Spec.deterministic

let test_quorum_follow () =
  (* n = 4, f = 1: three votes for 0 forces output 1 regardless of rng *)
  let spec = Counting.Rand_counter.make ~n:4 ~f:1 in
  let rng = Stdx.Rng.create 1 in
  check Alcotest.int "follows quorum 0 -> 1" 1
    (spec.Algo.Spec.transition ~self:0 ~rng [| 0; 0; 0; 1 |]);
  check Alcotest.int "follows quorum 1 -> 0" 0
    (spec.Algo.Spec.transition ~self:0 ~rng [| 1; 1; 1; 0 |])

let test_agreement_persists () =
  (* once all correct nodes agree, they count mod 2 forever, whatever the
     Byzantine node broadcasts *)
  let spec = Counting.Rand_counter.make ~n:4 ~f:1 in
  let init = [| 1; 1; 1; 0 |] in
  let run =
    Sim.Network.run ~init ~spec
      ~adversary:(Sim.Adversary.random_equivocate ()) ~faulty:[ 3 ]
      ~rounds:50 ~seed:5 ()
  in
  match Sim.Stabilise.of_run ~min_suffix:16 run with
  | Sim.Stabilise.Stabilized 0 -> ()
  | v ->
    Alcotest.failf "expected stabilized@0, got %a" Sim.Online.pp_verdict v

let test_stabilises_eventually () =
  (* exponential expected time, but n - f = 3 coins agree fast *)
  let spec = Counting.Rand_counter.make ~n:4 ~f:1 in
  let ok = ref 0 in
  for seed = 1 to 10 do
    let run =
      Sim.Network.run ~spec ~adversary:(Sim.Adversary.split_brain ())
        ~faulty:[ 2 ] ~rounds:400 ~seed ()
    in
    if Sim.Stabilise.of_run ~min_suffix:16 run <> Sim.Stabilise.Not_stabilized
    then incr ok
  done;
  check Alcotest.bool "most seeds stabilise within 400 rounds" true (!ok >= 8)

let test_larger_network_slower () =
  (* sanity check the exponential trend: average stabilisation time grows
     with n - f (this is the Table 1 "2^(2(n-f))" row) *)
  let mean_t n f =
    let spec = Counting.Rand_counter.make ~n ~f in
    let times =
      List.filter_map
        (fun seed ->
          let run =
            Sim.Network.run ~spec ~adversary:(Sim.Adversary.benign ())
              ~faulty:[] ~rounds:3000 ~seed ()
          in
          match Sim.Stabilise.of_run ~min_suffix:16 run with
          | Sim.Stabilise.Stabilized t -> Some (float_of_int t)
          | Sim.Stabilise.Not_stabilized -> None)
        (List.init 20 (fun i -> i + 1))
    in
    Stdx.Stats.mean times
  in
  let t4 = mean_t 4 0 and t10 = mean_t 10 0 in
  check Alcotest.bool "bigger quorum takes longer" true (t10 > t4)

let suite =
  [
    ( "rand_counter",
      [
        case "validation" test_validation;
        case "shape" test_shape;
        case "quorum following" test_quorum_follow;
        case "agreement persists" test_agreement_persists;
        case "stabilises eventually" test_stabilises_eventually;
        slow_case "exponential trend" test_larger_network_slower;
      ] );
  ]
