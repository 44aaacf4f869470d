(* B1: Bechamel micro-benchmarks — wall-clock cost of one simulated
   round (all N transitions) for each layer of the stack, plus the
   voting, phase-king and model-checker primitives. These are the
   "local computation" costs the paper argues stay small because states
   do. *)

open Bechamel
open Toolkit

(* One round as the engine runs it: one [load] of the round's packed
   state codes into the run's kernel, then [n] kernel steps over them. *)
let round_cost (spec : 'a Algo.Spec.t) =
  let codec =
    match spec.Algo.Spec.codec with
    | Some codec -> codec
    | None -> invalid_arg (spec.Algo.Spec.name ^ ": no packed state codec")
  in
  let rng = Stdx.Rng.create 1 in
  let codes =
    Array.init spec.Algo.Spec.n (fun _ -> codec.Algo.Spec.random_code rng)
  in
  let kernel = codec.Algo.Spec.fresh_kernel () in
  Staged.stage (fun () ->
      kernel.Algo.Spec.load codes;
      for v = 0 to spec.Algo.Spec.n - 1 do
        ignore (Sys.opaque_identity (kernel.Algo.Spec.step ~self:v ~rng codes))
      done)

let phase_king_cost () =
  let received = Array.init 36 (fun i -> if i mod 5 = 0 then None else Some (i mod 8)) in
  let self = { Counting.Phase_king.a = Some 3; d = true } in
  Staged.stage (fun () ->
      ignore
        (Sys.opaque_identity
           (Counting.Phase_king.step ~cap:8 ~big_n:36 ~big_f:7 ~index:4 ~self
              ~received)))

let majority_cost () =
  let rng = Stdx.Rng.create 2 in
  let votes = Array.init 128 (fun _ -> Stdx.Rng.int rng 4) in
  Staged.stage (fun () ->
      ignore (Sys.opaque_identity (Algo.Vote.majority_int ~default:0 votes)))

let checker_cost () =
  let spec = Counting.Trivial.follow_leader ~n:3 ~c:2 in
  Staged.stage (fun () ->
      let space = Mc.Space.create_exn spec ~faulty:[] in
      ignore (Sys.opaque_identity (Mc.Checker.evaluate space)))

let tests () =
  let a41 = (Bench_common.a41 ~c:960).Counting.Boost.spec in
  let a123 = (Bench_common.a12_3 ~c:8).Counting.Boost.spec in
  let a367 = (Bench_common.a36_7 ~c:2).Counting.Boost.spec in
  [
    Test.make ~name:"round: trivial n=1" (round_cost (Counting.Trivial.single ~c:2304));
    Test.make ~name:"round: A(4,1) n=4" (round_cost a41);
    Test.make ~name:"round: A(12,3) n=12" (round_cost a123);
    Test.make ~name:"round: A(36,7) n=36" (round_cost a367);
    Test.make ~name:"round: rand-counter n=12"
      (round_cost (Counting.Rand_counter.make ~n:12 ~f:3));
    Test.make ~name:"phase-king step N=36" (phase_king_cost ());
    Test.make ~name:"majority vote n=128" (majority_cost ());
    Test.make ~name:"model-check follow-leader(3)" (checker_cost ());
  ]

let run () =
  Bench_common.section "Microbenchmarks - cost of one simulated round per layer";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instance = Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.25) () in
  let table = Stdx.Table.create [ "benchmark"; "ns/iteration" ] in
  List.iter
    (fun test ->
      List.iter
        (fun elt ->
          let results = Benchmark.run cfg [ instance ] elt in
          let est = Analyze.one ols instance results in
          let nanos =
            match Analyze.OLS.estimates est with
            | Some [ v ] -> Printf.sprintf "%.0f" v
            | Some vs ->
              String.concat ","
                (List.map (fun v -> Printf.sprintf "%.0f" v) vs)
            | None -> "-"
          in
          Stdx.Table.add_row table [ Test.Elt.name elt; nanos ])
        (Test.elements test))
    (tests ());
  Stdx.Table.print table;
  Printf.printf
    "note: a full A(36,7) round costs micro- not milliseconds -- the %d-bit\n\
     states keep local computation trivial, which is the practical payoff\n\
     of the space bound.\n"
    (Bench_common.a36_7 ~c:2).Counting.Boost.spec.Algo.Spec.state_bits
