(* The pulling model (Section 5): communication-efficient counting by
   sampling, and the pseudo-random fixed-links variant.

     dune exec examples/pulling_demo.exe *)

let () =
  let inner =
    (Counting.Boost.construct ~inner:(Counting.Trivial.single ~c:2304) ~k:4
       ~big_f:1 ~big_c:960)
      .Counting.Boost.spec
  in
  (* Adaptive sampling: fresh random pulls every round. *)
  let samples = 16 in
  let s = Pulling.Sampled.construct ~inner ~k:3 ~big_f:3 ~big_c:8 ~samples in
  Printf.printf "Sampled pulling counter: %s\n"
    s.Pulling.Sampled.spec.Algo.Spec.name;
  Printf.printf "  pulls per node per round: %d (vs %d for broadcast)\n\n"
    s.Pulling.Sampled.pulls_per_round
    (s.Pulling.Sampled.spec.Algo.Spec.n - 1);
  let run =
    Sim.Network.run ~spec:s.Pulling.Sampled.spec
      ~adversary:(Sim.Adversary.random_equivocate ()) ~faulty:[ 11 ]
      ~rounds:3000 ~seed:5 ()
  in
  let correct = Sim.Network.correct_ids run in
  let clean lo hi =
    let ok = ref 0 in
    for t = lo to hi - 1 do
      if
        Sim.Stabilise.count_ok_step ~c:8 ~correct run.Sim.Network.outputs
          ~round:t
      then incr ok
    done;
    float_of_int !ok /. float_of_int (hi - lo)
  in
  Printf.printf "  adaptive variant, one Byzantine node:\n";
  Printf.printf "    clean counting steps in rounds 0-1000:    %.3f\n" (clean 0 1000);
  Printf.printf "    clean counting steps in rounds 2000-3000: %.3f\n" (clean 2000 3000);
  Printf.printf
    "    (Theorem 4: correct w.h.p. each round, a residual failure\n\
    \     probability that decays exponentially in the sample size M)\n\n";
  (* Oblivious variant: links drawn once, then a deterministic system. *)
  Printf.printf "Oblivious (pseudo-random) variant, Corollary 5:\n";
  let stabilised = ref 0 in
  let trials = 8 in
  for seed = 1 to trials do
    let ob =
      Pulling.Sampled.construct_oblivious ~inner ~k:3 ~big_f:3 ~big_c:8
        ~samples:16 ~links_seed:(40 + seed)
    in
    let run =
      Sim.Network.run ~spec:ob.Pulling.Sampled.spec
        ~adversary:(Sim.Adversary.random_equivocate ()) ~faulty:[ 11 ]
        ~rounds:3000 ~seed ()
    in
    match Sim.Stabilise.of_run ~min_suffix:64 run with
    | Sim.Stabilise.Stabilized t ->
      incr stabilised;
      Printf.printf "  link seed %2d: stabilised at round %d, then deterministic\n"
        (40 + seed) t
    | Sim.Stabilise.Not_stabilized ->
      Printf.printf "  link seed %2d: unlucky links, did not stabilise\n" (40 + seed)
  done;
  Printf.printf
    "  %d/%d link seeds stabilise; once stabilised, the sampled links are\n\
    \  fixed so counting continues deterministically forever (the paper's\n\
    \  pseudo-random counter under an oblivious fault pattern).\n"
    !stabilised trials
