(* Aggregated test runner: `dune runtest` executes every suite. *)

let () =
  Alcotest.run "synchronous-counting"
    (Test_stdx.suite @ Test_algo.suite @ Test_codec.suite @ Test_sim.suite
   @ Test_chaos.suite @ Test_hunt.suite @ Test_flat.suite
   @ Test_telemetry.suite @ Test_obs.suite @ Test_campaign.suite
   @ Test_phase_king.suite
   @ Test_counter_view.suite @ Test_rand_counter.suite @ Test_boost.suite
   @ Test_plan.suite @ Test_mc.suite @ Test_pulling.suite)
