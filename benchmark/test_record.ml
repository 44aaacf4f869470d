(* Unit tests for the benchmark's pure parts: quantiles, compare verdicts,
   waterfall arithmetic and the JSON record. No workload is executed. *)

module R = Bench_record.Record

let floats = Alcotest.(list (float 1e-12))

let test_quartiles () =
  (* Expected values from Python's statistics.quantiles(xs, n=4). *)
  let q xs =
    let a, b, c = R.quartiles xs in
    [ a; b; c ]
  in
  Alcotest.check floats "1..10" [ 2.75; 5.5; 8.25 ]
    (q (List.init 10 (fun i -> float_of_int (i + 1))));
  Alcotest.check floats "1..4 unsorted" [ 1.25; 2.5; 3.75 ] (q [ 4.; 2.; 1.; 3. ]);
  Alcotest.check floats "two samples extrapolate" [ 0.75; 1.5; 2.25 ] (q [ 1.; 2. ]);
  Alcotest.check floats "one sample" [ 7.; 7.; 7. ] (q [ 7. ]);
  Alcotest.(check (float 0.)) "odd median" 2. (R.median [ 3.; 1.; 2. ]);
  Alcotest.(check (float 0.)) "even median" 2.5 (R.median [ 4.; 1.; 3.; 2. ]);
  let s = R.summarize [ 1.; 2.; 3.; 4. ] in
  Alcotest.(check (float 1e-12)) "relative spread" (2.5 /. 2.5) (R.rel_spread s);
  (* A metric's value: the fast decile for the campaign times, the
     median otherwise; the decile never leaves the samples. *)
  let ten = R.summarize (List.rev (List.init 10 (fun i -> float_of_int (i + 1)))) in
  let value name = R.value (R.metric name) ten in
  Alcotest.(check (float 1e-12)) "wall_s: 10th percentile" 1.9 (value "wall_s");
  Alcotest.(check (float 1e-12)) "node_rounds_per_s: 90th percentile" 9.1
    (value "node_rounds_per_s");
  Alcotest.(check (float 1e-12)) "setup_s: median" 5.5 (value "setup_s");
  Alcotest.(check (float 0.)) "one sample" 7. (R.quantile [ 7. ] 0.1);
  Alcotest.(check (float 0.)) "two samples stay inside" 1.1 (R.quantile [ 2.; 1. ] 0.1)

let verdict = Alcotest.testable (Fmt.of_to_string R.verdict_name) ( = )

(* A tight summary around [m]: quartiles within 1 % of the median. *)
let tight m = R.summarize [ m *. 0.99; m *. 0.995; m; m *. 1.005; m *. 1.01 ]

let test_verdicts () =
  let wall = R.metric "wall_s" and nrps = R.metric "node_rounds_per_s" in
  let judge m b n = R.judge m ~base:b ~next:n in
  Alcotest.check verdict "within bound" R.Same (judge wall (tight 1.0) (tight 1.05));
  Alcotest.check verdict "slower" R.Worse (judge wall (tight 1.0) (tight 1.5));
  Alcotest.check verdict "faster" R.Better (judge wall (tight 1.0) (tight 0.5));
  Alcotest.check verdict "higher is better: drop" R.Worse
    (judge nrps (tight 100.) (tight 50.));
  Alcotest.check verdict "higher is better: rise" R.Better
    (judge nrps (tight 100.) (tight 150.));
  let noisy = R.summarize [ 0.5; 0.8; 1.0; 1.3; 1.6 ] in
  Alcotest.check verdict "iqr wider than bound" R.Unresolved
    (judge wall noisy (tight 1.2));
  Alcotest.check verdict "noisy but every new run beats every base run" R.Better
    (judge wall noisy (R.summarize [ 0.1; 0.2; 0.3 ]));
  let ff = R.metric "failed_frac" in
  Alcotest.check verdict "no failures" R.Same
    (judge ff (R.summarize [ 0.; 0. ]) (R.summarize [ 0.; 0. ]));
  Alcotest.check verdict "any rise in failed_frac" R.Worse
    (judge ff (R.summarize [ 0.; 0. ]) (R.summarize [ 0.; 1e-4 ]))

let test_waterfall () =
  let rows = R.waterfall ~wall:2.0 [ ("a", 0.5); ("b", 1.0) ] in
  Alcotest.(check (float 1e-12)) "remainder" 0.5
    (List.assoc "driver.unattributed_s" rows);
  let over = R.waterfall ~wall:1.0 [ ("a", 0.75); ("b", 0.5) ] in
  Alcotest.(check (float 1e-12)) "negative remainder kept" (-0.25)
    (List.assoc "driver.unattributed_s" over);
  Alcotest.(check (float 1e-12)) "rows sum to wall" 1.0
    (List.fold_left (fun a (_, v) -> a +. v) 0.0 over)

let sample_record ?(seed = 1) ?(digest = "d41d8cd98f00b204e9800998ecf8427e")
    ?(wall = 1.0) () =
  {
    R.fingerprint =
      {
        R.nproc = 2;
        ocaml = "5.1.1";
        flambda = false;
        jobs = 2;
        seed;
        reps = 3;
        git_rev = None;
      };
    probe_s = [ 0.1; 0.125 ];
    workloads =
      [
        {
          R.name = "sweep-a12";
          digest;
          digests_agree = true;
          attempted = 9600;
          failed = 0;
          phase_failures = 0;
          metrics =
            List.map
              (fun (m : R.metric) ->
                ( m.R.name,
                  if m.R.bound = 0.0 then R.summarize [ 0.; 0.; 0. ]
                  else R.summarize [ wall *. 1.01; wall *. 0.99; wall ] ))
              R.end_to_end;
          layers = [ ("engine.step_s", 0.123456789); ("pool.idle_frac", 0.5) ];
          waterfall = R.waterfall ~wall:1.5 [ ("pool.wall_s", 1.75) ];
        };
      ];
  }

let test_json_round_trip () =
  let r = sample_record () in
  let text = R.to_json r in
  let back = R.of_json (Stdx.Json.parse text) in
  Alcotest.(check bool) "of_json (to_json r) = r" true (back = r);
  let path = "record-round-trip.json" in
  Out_channel.with_open_bin path (fun oc -> output_string oc text);
  let lint = Sys.command (Filename.quote_command "../bin/jsonlint.exe" [ path ]) in
  Sys.remove path;
  Alcotest.(check int) "jsonlint accepts the record" 0 lint

let test_compare_records () =
  let base = sample_record () in
  let same = R.compare_records ~base ~next:(sample_record ()) in
  Alcotest.(check bool) "identical records pass" false (R.regressed same);
  let slow = R.compare_records ~base ~next:(sample_record ~wall:2.0 ()) in
  Alcotest.(check bool) "slower record regresses" true (R.regressed slow);
  let other = sample_record ~digest:"0123" () in
  Alcotest.(check (list string)) "digest mismatch" [ "sweep-a12" ]
    (R.compare_records ~base ~next:other).R.digest_mismatches;
  let c = R.compare_records ~base ~next:(sample_record ~seed:2 ~digest:"0123" ()) in
  Alcotest.(check bool) "different seeds: digests not compared" false
    (R.regressed c)

(* BENCHMARK.json at the repository root must name exactly what this
   benchmark defines. *)
let test_benchmark_json () =
  let j =
    Stdx.Json.parse (In_channel.with_open_bin "../BENCHMARK.json" In_channel.input_all)
  in
  let open Stdx.Json in
  let names key =
    List.map (fun w -> to_string "name" (field w "name")) (to_list key (field j key))
  in
  Alcotest.(check (list string)) "workloads" R.workload_names (names "workloads");
  let check_metrics key (defs : R.metric list) =
    List.iter
      (fun e ->
        let name = to_string "name" (field e "name") in
        match List.find_opt (fun (m : R.metric) -> m.R.name = name) defs with
        | None -> Alcotest.failf "%s: %s is not defined" key name
        | Some m ->
          Alcotest.(check string)
            (name ^ " unit") m.R.unit_
            (to_string "unit" (field e "unit"));
          Alcotest.(check string) (name ^ " better") (R.better_name m.R.better)
            (to_string "better" (field e "better"));
          if key = "end_to_end" then
            Alcotest.(check (float 0.)) (name ^ " bound") m.R.bound
              (to_float "bound" (field e "bound")))
      (to_list key (field j key))
  in
  check_metrics "end_to_end" R.end_to_end;
  check_metrics "per_layer" R.layers;
  Alcotest.(check (list string)) "every per-layer metric is listed"
    (List.map (fun (m : R.metric) -> m.R.name) R.layers)
    (names "per_layer");
  Alcotest.(check (list string)) "every non-zero end-to-end metric is listed"
    (List.filter_map
       (fun (m : R.metric) -> if m.R.bound > 0.0 then Some m.R.name else None)
       R.end_to_end)
    (names "end_to_end")

let () =
  Alcotest.run "benchmark"
    [
      ( "record",
        [
          Alcotest.test_case "quartiles" `Quick test_quartiles;
          Alcotest.test_case "compare verdicts" `Quick test_verdicts;
          Alcotest.test_case "waterfall" `Quick test_waterfall;
          Alcotest.test_case "json round trip + jsonlint" `Quick test_json_round_trip;
          Alcotest.test_case "compare records" `Quick test_compare_records;
          Alcotest.test_case "BENCHMARK.json" `Quick test_benchmark_json;
        ] );
    ]
