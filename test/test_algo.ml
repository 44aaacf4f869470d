(* Tests for the algorithm representation, combinators and voting. *)

let check = Alcotest.check
let case name f = Alcotest.test_case name `Quick f

let qcheck ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

let trivial = Counting.Trivial.single ~c:6

(* ------------------------------------------------------------------ *)
(* Spec validation                                                      *)
(* ------------------------------------------------------------------ *)

let test_validate_ok () =
  check Alcotest.bool "trivial validates" true
    (Result.is_ok (Algo.Spec.validate trivial))

let test_validate_bad_n () =
  let bad = { trivial with Algo.Spec.n = 0 } in
  check Alcotest.bool "n = 0 rejected" true (Result.is_error (Algo.Spec.validate bad))

let test_validate_bad_c () =
  let bad = { trivial with Algo.Spec.c = 0 } in
  check Alcotest.bool "c = 0 rejected" true (Result.is_error (Algo.Spec.validate bad))

let test_validate_bad_output () =
  let bad = { trivial with Algo.Spec.output = (fun ~self:_ s -> s + 100) } in
  check Alcotest.bool "out-of-range output rejected" true
    (Result.is_error (Algo.Spec.validate bad))

let test_validate_bad_bits () =
  let bad = { trivial with Algo.Spec.state_bits = 1 } in
  check Alcotest.bool "understated state_bits rejected" true
    (Result.is_error (Algo.Spec.validate bad))

let test_counter_values () =
  let spec = Counting.Trivial.follow_leader ~n:3 ~c:5 in
  let outs = Algo.Spec.counter_values spec [| 1; 2; 3 |] in
  check (Alcotest.array Alcotest.int) "node-wise outputs" [| 1; 2; 3 |] outs

let test_packed_accessors () =
  let p = Algo.Spec.Packed trivial in
  check Alcotest.int "n" 1 (Algo.Spec.packed_n p);
  check Alcotest.int "f" 0 (Algo.Spec.packed_f p);
  check Alcotest.int "c" 6 (Algo.Spec.packed_c p);
  check Alcotest.int "bits" 3 (Algo.Spec.packed_state_bits p)

(* ------------------------------------------------------------------ *)
(* Combinators                                                          *)
(* ------------------------------------------------------------------ *)

let test_project_counter () =
  let projected = Algo.Combinators.project_counter trivial ~modulus:3 in
  check Alcotest.int "modulus" 3 projected.Algo.Spec.c;
  check Alcotest.int "output reduced" 2 (projected.Algo.Spec.output ~self:0 5);
  check Alcotest.int "state bits untouched" trivial.Algo.Spec.state_bits
    projected.Algo.Spec.state_bits

let test_project_counter_invalid () =
  Alcotest.check_raises "4 does not divide 6"
    (Invalid_argument
       "Combinators.project_counter: 4 does not divide c = 6 (trivial(c=6))")
    (fun () -> ignore (Algo.Combinators.project_counter trivial ~modulus:4))

let test_project_counter_prop =
  qcheck "projected output = output mod m for every divisor"
    QCheck.(int_range 0 5)
    (fun s ->
      List.for_all
        (fun m ->
          let p = Algo.Combinators.project_counter trivial ~modulus:m in
          p.Algo.Spec.output ~self:0 s = trivial.Algo.Spec.output ~self:0 s mod m)
        [ 1; 2; 3; 6 ])

let test_rename () =
  let r = Algo.Combinators.rename trivial "fancy" in
  check Alcotest.string "renamed" "fancy" r.Algo.Spec.name

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

let test_count_eq () =
  check Alcotest.int "count" 3
    (Algo.Vote.count_eq ~equal:Int.equal 5 [| 5; 1; 5; 5; 2 |])

let test_has_supermajority () =
  check Alcotest.bool "meets threshold" true
    (Algo.Vote.has_supermajority ~threshold:2 1 [| 1; 1; 0 |]);
  check Alcotest.bool "misses threshold" false
    (Algo.Vote.has_supermajority ~threshold:3 1 [| 1; 1; 0 |])

let test_majority_generic () =
  let v =
    Algo.Vote.majority ~equal:String.equal ~default:"none"
      [| "a"; "b"; "a"; "a" |]
  in
  check Alcotest.string "generic ballots" "a" v

let suite =
  [
    ( "algo.spec",
      [
        case "validate ok" test_validate_ok;
        case "validate bad n" test_validate_bad_n;
        case "validate bad c" test_validate_bad_c;
        case "validate bad output" test_validate_bad_output;
        case "validate bad bits" test_validate_bad_bits;
        case "counter_values" test_counter_values;
        case "packed accessors" test_packed_accessors;
      ] );
    ( "algo.combinators",
      [
        case "project_counter" test_project_counter;
        case "project_counter invalid" test_project_counter_invalid;
        test_project_counter_prop;
        case "rename" test_rename;
      ] );
    ( "algo.vote",
      [
        case "strict majority" test_majority_strict;
        case "empty" test_majority_empty;
        case "singleton" test_majority_singleton;
        test_majority_matches_naive;
        case "counts_int" test_counts_int;
        case "count_eq" test_count_eq;
        case "has_supermajority" test_has_supermajority;
        case "generic majority" test_majority_generic;
      ] );
  ]
