(* Telemetry layer: Stdx.Metrics, Sim.Trace, and the differential
   guarantee that turning telemetry on changes nothing about a run. *)

let check = Alcotest.check
let case name f = Alcotest.test_case name `Quick f

let qcheck ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

let rejects name f =
  match f () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.failf "%s: expected Invalid_argument" name

let parallel_jobs =
  match Sys.getenv_opt "REPRO_JOBS" with
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some j when j >= 1 -> j
    | _ -> 8)
  | None -> 8

(* ------------------------------------------------------------------ *)
(* Stdx.Metrics                                                         *)
(* ------------------------------------------------------------------ *)

let test_counters_and_gauges () =
  let m = Stdx.Metrics.create () in
  Stdx.Metrics.incr m "b";
  Stdx.Metrics.incr ~by:41 m "b";
  Stdx.Metrics.incr m "a";
  Stdx.Metrics.set_gauge m "g" 1.5;
  Stdx.Metrics.set_gauge m "g" 2.5;
  let snap = Stdx.Metrics.snapshot m in
  check
    Alcotest.(list string)
    "snapshot sorted by name" [ "a"; "b"; "g" ] (List.map fst snap);
  check Alcotest.bool "counter sums" true
    (Stdx.Metrics.find snap "b" = Some (Stdx.Metrics.Counter 42));
  check Alcotest.bool "gauge keeps last write" true
    (Stdx.Metrics.find snap "g" = Some (Stdx.Metrics.Gauge 2.5));
  check Alcotest.bool "missing name" true
    (Stdx.Metrics.find snap "zzz" = None);
  Stdx.Metrics.reset m;
  check Alcotest.int "reset drops everything" 0
    (List.length (Stdx.Metrics.snapshot m))

let test_histogram_bucket_edges () =
  let m = Stdx.Metrics.create () in
  let buckets = [| 1.0; 2.0; 4.0 |] in
  List.iter
    (Stdx.Metrics.observe ~buckets m "h")
    [ 0.5; 1.0; 1.5; 4.0; 5.0 ];
  match Stdx.Metrics.find (Stdx.Metrics.snapshot m) "h" with
  | Some (Stdx.Metrics.Histogram h) ->
    (* a sample lands in the first bucket whose upper bound it does not
       exceed: 0.5 and 1.0 in <=1, 1.5 in <=2, 4.0 in <=4, 5.0 overflow *)
    check (Alcotest.array Alcotest.int) "counts" [| 2; 1; 1; 1 |] h.counts;
    check Alcotest.int "total count" 5 h.count;
    check (Alcotest.float 1e-9) "sum" 12.0 h.sum;
    check Alcotest.int "overflow bucket is implicit" 4
      (Array.length h.counts)
  | _ -> Alcotest.fail "histogram missing"

let test_metrics_rejects () =
  let m = Stdx.Metrics.create () in
  Stdx.Metrics.incr m "c";
  Stdx.Metrics.observe m "h" 1.0;
  rejects "counter used as gauge" (fun () -> Stdx.Metrics.set_gauge m "c" 1.0);
  rejects "counter used as histogram" (fun () ->
      Stdx.Metrics.observe m "c" 1.0);
  rejects "histogram used as counter" (fun () -> Stdx.Metrics.incr m "h");
  rejects "conflicting bucket layout" (fun () ->
      Stdx.Metrics.observe ~buckets:[| 1.0; 2.0 |] m "h" 1.0);
  rejects "empty bucket layout" (fun () ->
      Stdx.Metrics.observe ~buckets:[||] m "h2" 1.0);
  rejects "non-increasing buckets" (fun () ->
      Stdx.Metrics.observe ~buckets:[| 2.0; 1.0 |] m "h3" 1.0);
  rejects "non-finite observation" (fun () ->
      Stdx.Metrics.observe m "h" Float.infinity);
  rejects "non-finite gauge" (fun () ->
      Stdx.Metrics.set_gauge m "g" Float.nan);
  (* omitting ~buckets reuses the existing layout rather than clashing
     with the default *)
  Stdx.Metrics.observe ~buckets:[| 10.0 |] m "h4" 1.0;
  Stdx.Metrics.observe m "h4" 2.0;
  match Stdx.Metrics.find (Stdx.Metrics.snapshot m) "h4" with
  | Some (Stdx.Metrics.Histogram h) -> check Alcotest.int "both landed" 2 h.count
  | _ -> Alcotest.fail "histogram missing"

let test_concurrent_increments_sum_exactly () =
  let m = Stdx.Metrics.create () in
  let tasks = 400 in
  ignore
    (Stdx.Pool.exec ~jobs:parallel_jobs tasks (fun i ->
         Stdx.Metrics.incr m "hits";
         Stdx.Metrics.incr ~by:2 m "double";
         Stdx.Metrics.observe ~buckets:[| 100.0; 200.0; 400.0 |] m "obs"
           (float_of_int i)));
  let snap = Stdx.Metrics.snapshot m in
  check Alcotest.bool "no lost increments" true
    (Stdx.Metrics.find snap "hits" = Some (Stdx.Metrics.Counter tasks));
  check Alcotest.bool "no lost ~by increments" true
    (Stdx.Metrics.find snap "double" = Some (Stdx.Metrics.Counter (2 * tasks)));
  match Stdx.Metrics.find snap "obs" with
  | Some (Stdx.Metrics.Histogram h) ->
    check Alcotest.int "no lost observations" tasks h.count;
    check (Alcotest.array Alcotest.int) "bucket counts exact"
      [| 101; 100; 199; 0 |] h.counts
  | _ -> Alcotest.fail "histogram missing"

let test_merge_determinism () =
  (* worker-local registries merged in a fixed order: same result however
     the workers were scheduled, and the totals are the sums *)
  let worker i =
    let w = Stdx.Metrics.create () in
    Stdx.Metrics.incr ~by:(i + 1) w "runs";
    Stdx.Metrics.set_gauge w "last" (float_of_int i);
    Stdx.Metrics.observe ~buckets:[| 2.0; 8.0 |] w "rec" (float_of_int i);
    Stdx.Metrics.snapshot w
  in
  let snaps = List.init 10 worker in
  let merged () =
    let m = Stdx.Metrics.create () in
    List.iter (Stdx.Metrics.merge m) snaps;
    Stdx.Metrics.snapshot m
  in
  let a = merged () and b = merged () in
  check Alcotest.bool "merge is deterministic" true (a = b);
  check Alcotest.bool "counters add" true
    (Stdx.Metrics.find a "runs" = Some (Stdx.Metrics.Counter 55));
  check Alcotest.bool "gauges keep the last merge" true
    (Stdx.Metrics.find a "last" = Some (Stdx.Metrics.Gauge 9.0));
  (match Stdx.Metrics.find a "rec" with
  | Some (Stdx.Metrics.Histogram h) ->
    check Alcotest.int "histogram counts add" 10 h.count;
    check (Alcotest.float 1e-9) "histogram sums add" 45.0 h.sum
  | _ -> Alcotest.fail "histogram missing");
  rejects "merge layout mismatch" (fun () ->
      let m = Stdx.Metrics.create () in
      Stdx.Metrics.observe ~buckets:[| 1.0 |] m "rec" 0.5;
      Stdx.Metrics.merge m (List.hd snaps))

let test_timed () =
  let m = Stdx.Metrics.create () in
  let v, wall = Stdx.Metrics.timed m "t" (fun () -> 7) in
  check Alcotest.int "returns the result" 7 v;
  check Alcotest.bool "non-negative duration" true (wall >= 0.0);
  (match
     ignore (Stdx.Metrics.timed m "t" (fun () -> failwith "boom"))
   with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "timed swallowed the exception");
  match Stdx.Metrics.find (Stdx.Metrics.snapshot m) "t" with
  | Some (Stdx.Metrics.Histogram h) ->
    check Alcotest.int "both calls recorded (even the raising one)" 2 h.count
  | _ -> Alcotest.fail "histogram missing"

let test_metrics_json () =
  let m = Stdx.Metrics.create () in
  Stdx.Metrics.incr ~by:2 m "a";
  check Alcotest.string "counters only"
    "{\"counters\":{\"a\":2},\"gauges\":{},\"histograms\":{}}"
    (Stdx.Metrics.to_json (Stdx.Metrics.snapshot m));
  Stdx.Metrics.observe ~buckets:[| 1.0 |] m "h" 0.5;
  check Alcotest.string "histogram block"
    "{\"counters\":{\"a\":2},\"gauges\":{},\"histograms\":{\"h\":{\"buckets\":[1],\"counts\":[1,0],\"count\":1,\"sum\":0.5}}}"
    (Stdx.Metrics.to_json (Stdx.Metrics.snapshot m));
  let table = Stdx.Metrics.to_table (Stdx.Metrics.snapshot m) in
  check Alcotest.bool "table renders every instrument" true
    (let s = Stdx.Table.to_string table in
     Astring.String.is_infix ~affix:"a" s
     && Astring.String.is_infix ~affix:"histogram" s)

(* ------------------------------------------------------------------ *)
(* Sim.Trace                                                            *)
(* ------------------------------------------------------------------ *)

let sample_events : Sim.Trace.event list =
  [
    Sim.Trace.Meta
      { label = "A(4,1) \"quoted\""; n = 4; f = 1; c = 2; time_bound = Some 9 };
    Sim.Trace.Meta { label = ""; n = 1; f = 0; c = 2; time_bound = None };
    Sim.Trace.Cell_start { cell = 0; label = "stuck f=[0] seed=1" };
    Sim.Trace.Phase_start
      { round = 0; phase = 0; adversary = "split-brain"; faulty = [ 0; 3 ] };
    Sim.Trace.Corruption { round = 12; phase = 0; requested = 3; victims = [] };
    Sim.Trace.Corruption
      { round = 12; phase = 2; requested = 2; victims = [ 1; 2 ] };
    Sim.Trace.Detector_reset { round = 12; phase = 0 };
    Sim.Trace.Verdict
      { round = 60; phase = 0; stabilized = Some 14; recovery = Some 2 };
    Sim.Trace.Verdict
      { round = 60; phase = 1; stabilized = None; recovery = None };
    Sim.Trace.Hunt_trial { trial = 0; seed = 927364; score = 0.0; hit = false };
    Sim.Trace.Hunt_trial
      { trial = 7; seed = 11; score = 1000000.125; hit = true };
    Sim.Trace.Hunt_shrink
      { trial = 7; steps = 31; kept = 5; size = 28; score = 1000000.0 };
    Sim.Trace.Cell_end { cell = 0; wall_s = 0.001234 };
    Sim.Trace.Cell_end { cell = 1; wall_s = 0.0 };
  ]

let test_null_writer () =
  let t = Sim.Trace.null in
  check Alcotest.bool "seams off" false (Sim.Trace.seams_on t);
  List.iter (Sim.Trace.emit t) sample_events;
  check Alcotest.int "null never buffers" 0
    (List.length (Sim.Trace.events t))

let test_memory_writer () =
  let t = Sim.Trace.memory () in
  check Alcotest.bool "seams on" true (Sim.Trace.seams_on t);
  List.iter (Sim.Trace.emit t) sample_events;
  check Alcotest.bool "memory keeps everything in order" true
    (Sim.Trace.events t = sample_events)

let test_jsonl_round_trip () =
  List.iter
    (fun ev ->
      match Sim.Trace.of_json (Sim.Trace.to_json ev) with
      | Ok ev' ->
        if not (Sim.Trace.equal_event ev ev') then
          Alcotest.failf "round trip changed %s" (Sim.Trace.to_json ev)
      | Error msg ->
        Alcotest.failf "%s: did not parse back: %s" (Sim.Trace.to_json ev) msg)
    sample_events

let test_jsonl_round_trip_qcheck =
  qcheck "Cell_end wall_s round-trips exactly (%.17g)"
    QCheck.(pair small_nat (float_bound_inclusive 3600.0))
    (fun (cell, wall_s) ->
      (not (Float.is_finite wall_s))
      ||
      let ev = Sim.Trace.Cell_end { cell; wall_s } in
      Sim.Trace.of_json (Sim.Trace.to_json ev) = Ok ev)

let test_jsonl_writer_and_reader () =
  let path = Filename.temp_file "trace" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      let t = Sim.Trace.jsonl oc in
      List.iter (Sim.Trace.emit t) sample_events;
      close_out oc;
      let ic = open_in path in
      let back =
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> Sim.Trace.read_jsonl ic)
      in
      check Alcotest.bool "file round-trips the stream" true
        (back = Ok sample_events))

(* Every input through the file reader and through [parse_jsonl] on
   the same text ([countctl report] parses the text it already read):
   the two must agree, errors included. *)
let test_read_jsonl_errors () =
  let parse s =
    let path = Filename.temp_file "trace" ".jsonl" in
    let from_file =
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          let oc = open_out path in
          output_string oc s;
          close_out oc;
          let ic = open_in path in
          Fun.protect
            ~finally:(fun () -> close_in ic)
            (fun () -> Sim.Trace.read_jsonl ic))
    in
    check Alcotest.bool "parse_jsonl agrees with the file reader" true
      (Sim.Trace.parse_jsonl s = from_file);
    from_file
  in
  (match parse "{\"ev\":\"detector-reset\",\"round\":1,\"phase\":0}\nnot json\n" with
  | Error msg ->
    check Alcotest.bool "error names the line" true
      (Astring.String.is_infix ~affix:"line 2" msg)
  | Ok _ -> Alcotest.fail "accepted malformed line");
  (match parse "{\"ev\":\"warp\"}\n" with
  | Error msg ->
    check Alcotest.bool "unknown kind reported" true
      (Astring.String.is_infix ~affix:"warp" msg)
  | Ok _ -> Alcotest.fail "accepted unknown event");
  (match
     parse
       "{\"ev\":\"detector-reset\",\"round\":1,\"phase\":0}\n\
        {\"ev\":\"detector-reset\",\"round\":2,\"phase\":0}\n\
        {\"ev\":\"detector-re"
   with
  | Error msg ->
    check Alcotest.bool "a line cut off mid-write is named" true
      (Astring.String.is_prefix ~affix:"line 3: " msg)
  | Ok _ -> Alcotest.fail "accepted a cut-off line");
  check Alcotest.bool "blank lines skipped" true
    (parse "\n{\"ev\":\"detector-reset\",\"round\":1,\"phase\":0}\n\n"
    = Ok [ Sim.Trace.Detector_reset { round = 1; phase = 0 } ])

(* Fuzz: every line-oriented reader takes damaged input without raising.
   Valid lines of each format (trace events, a schedule, a heartbeat
   beat) are truncated and byte-flipped at random; the single-value
   parsers must return a result, and the file readers must return either
   events or an error naming the damaged line. Flips never write a
   newline, so the damaged line keeps its line number. *)

let valid_lines =
  lazy
    (let spec =
       Algo.Combinators.with_claimed_resilience
         (Counting.Trivial.follow_leader ~n:4 ~c:5)
         ~f:1
     in
     let schedule =
       Sim.Schedule.random ~spec
         ~adversaries:(Sim.Adversary.standard_suite ())
         ~phases:3 ~phase_rounds:20 ~events:2 ~seed:3 ()
     in
     let path = Filename.temp_file "hb" ".jsonl" in
     let beat =
       Fun.protect
         ~finally:(fun () -> Sys.remove path)
         (fun () ->
           let oc = open_out path in
           let hb =
             Stdx.Heartbeat.create ~label:"fuzz" ~interval_s:0.0 ~out:oc ()
           in
           Stdx.Heartbeat.set_totals hb ~cells:2 ~cost:2.0;
           Stdx.Heartbeat.hit hb "failed";
           Stdx.Heartbeat.finish hb;
           close_out oc;
           In_channel.with_open_bin path In_channel.input_line |> Option.get)
     in
     Array.of_list
       ((beat :: Sim.Schedule.to_json schedule
        :: List.map Sim.Trace.to_json sample_events)))

let damage line ~cut ~flips =
  let b = Bytes.of_string line in
  List.iter
    (fun (pos, byte) ->
      if Bytes.length b > 0 then
        Bytes.set b (pos mod Bytes.length b)
          (Char.chr (if byte = Char.code '\n' then Char.code ' ' else byte)))
    flips;
  Bytes.sub_string b 0 (min (Bytes.length b) cut)

let read_trace_file content =
  let path = Filename.temp_file "trace" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc -> output_string oc content);
      In_channel.with_open_bin path Sim.Trace.read_jsonl)

let test_readers_survive_damage =
  qcheck ~count:300 "damaged lines: no reader raises, errors name the line"
    QCheck.(
      triple small_nat (int_bound 400)
        (small_list (pair small_nat (int_bound 255))))
    (fun (which, cut, flips) ->
      let lines = Lazy.force valid_lines in
      let good = lines.(which mod Array.length lines) in
      let bad = damage good ~cut ~flips in
      let names_line n = function
        | Ok _ -> true
        | Error msg -> Astring.String.is_infix ~affix:(Printf.sprintf "line %d:" n) msg
      in
      let trace_line = Sim.Trace.to_json (List.hd sample_events) in
      match
        ignore (Stdx.Json.parse_result bad);
        ignore
          (Sim.Schedule.of_json ~adversaries:(Sim.Adversary.standard_suite ())
             bad
            : (int Sim.Schedule.t, string) result);
        ignore (Stdx.Heartbeat.is_heartbeat_line bad);
        ( read_trace_file (String.concat "\n" [ trace_line; bad; trace_line; "" ]),
          (* A file whose only line was cut off mid-write. *)
          read_trace_file bad,
          Stdx.Heartbeat.latest ~path:"hb" (lines.(0) ^ "\n" ^ bad ^ "\n") )
      with
      | exception e ->
        QCheck.Test.fail_reportf "%S raised %s" bad (Printexc.to_string e)
      | middle, alone, beat ->
        names_line 2 middle && names_line 1 alone && names_line 2 beat)

(* ------------------------------------------------------------------ *)
(* Engine/Harness integration and the differential guarantee            *)
(* ------------------------------------------------------------------ *)

let leader =
  Algo.Combinators.with_claimed_resilience
    (Counting.Trivial.follow_leader ~n:4 ~c:5)
    ~f:1

let adversary = Sim.Adversary.random_equivocate ()

let run_leader ?tracer ?metrics () =
  Sim.Engine.run ?tracer ?metrics ~spec:leader
    ~schedule:(Sim.Schedule.static ~adversary ~faulty:[ 0 ] ~rounds:200)
    ~seed:5 ()

let test_engine_emits_seam_events () =
  let tr = Sim.Trace.memory () in
  let o = run_leader ~tracer:tr () in
  let events = Sim.Trace.events tr in
  (match events with
  | Sim.Trace.Phase_start { round = 0; phase = 0; adversary = a; faulty }
    :: _ ->
    check Alcotest.string "adversary name recorded" "random-equivocate" a;
    check (Alcotest.list Alcotest.int) "faulty recorded" [ 0 ] faulty
  | _ -> Alcotest.fail "first event must be Phase_start");
  (match List.rev events with
  | Sim.Trace.Verdict { stabilized; recovery; _ } :: _ ->
    check Alcotest.bool "verdict matches the outcome" true
      (match o.Sim.Engine.verdict with
      | Sim.Stabilise.Stabilized s ->
        stabilized = Some s && recovery = Some s
      | Sim.Stabilise.Not_stabilized -> stabilized = None)
  | _ -> Alcotest.fail "last event must be Verdict")

let test_engine_metrics_content () =
  let m = Stdx.Metrics.create () in
  let o = run_leader ~metrics:m () in
  let snap = Stdx.Metrics.snapshot m in
  check Alcotest.bool "runs counted" true
    (Stdx.Metrics.find snap "engine.runs" = Some (Stdx.Metrics.Counter 1));
  check Alcotest.bool "rounds counted" true
    (Stdx.Metrics.find snap "engine.rounds"
    = Some (Stdx.Metrics.Counter o.Sim.Engine.rounds_simulated));
  check Alcotest.bool "messages = rounds * n(n-1)" true
    (Stdx.Metrics.find snap "engine.messages"
    = Some
        (Stdx.Metrics.Counter
           (o.Sim.Engine.rounds_simulated * o.Sim.Engine.messages_per_round)))

let test_engine_differential () =
  let plain = run_leader () in
  let traced =
    run_leader
      ~tracer:(Sim.Trace.memory ())
      ~metrics:(Stdx.Metrics.create ()) ()
  in
  check Alcotest.bool "bit-identical outcome with telemetry on" true
    (plain = traced)

let test_multi_phase_differential () =
  let schedule =
    Sim.Schedule.random ~spec:leader
      ~adversaries:(Sim.Adversary.standard_suite ())
      ~phases:3 ~phase_rounds:60 ~events:2 ~max_victims:2 ~event_margin:16
      ~seed:3 ()
  in
  let go ?tracer ?metrics () =
    Sim.Engine.run ?tracer ?metrics ~spec:leader ~schedule ~seed:11 ()
  in
  let plain = go () in
  let traced =
    go
      ~tracer:(Sim.Trace.memory ())
      ~metrics:(Stdx.Metrics.create ()) ()
  in
  check Alcotest.bool "bit-identical schedule outcome with telemetry on" true
    (plain = traced)

let harness_config ~jobs =
  Sim.Harness.Config.(
    default |> with_rounds 150 |> with_seeds [ 1; 2 ] |> with_jobs jobs)

let chaos_config ~jobs =
  Sim.Harness.Chaos.Config.(
    default |> with_campaigns 2 |> with_phases 2 |> with_phase_rounds 60
    |> with_events 1 |> with_seeds [ 1; 2 ] |> with_jobs jobs)

let test_harness_differential () =
  let go ?metrics ?trace jobs =
    Sim.Harness.run ?metrics ?trace
      ~config:(harness_config ~jobs)
      ~spec:leader
      ~adversaries:(Sim.Adversary.standard_suite ())
      ()
  in
  let plain = go 1 in
  let m = Stdx.Metrics.create () in
  let tr = Sim.Trace.memory () in
  check Alcotest.bool "harness aggregate identical with telemetry on" true
    (plain = go ~metrics:m ~trace:tr 1);
  check Alcotest.bool "telemetry actually collected" true
    (Stdx.Metrics.snapshot m <> [] && Sim.Trace.events tr <> [])

let test_chaos_differential () =
  let go ?metrics ?trace jobs =
    Sim.Harness.Chaos.run ?metrics ?trace
      ~config:(chaos_config ~jobs)
      ~spec:leader
      ~adversaries:(Sim.Adversary.standard_suite ())
      ()
  in
  let plain = go 1 in
  check Alcotest.bool "chaos aggregate identical with telemetry on" true
    (plain
    = go ~metrics:(Stdx.Metrics.create ()) ~trace:(Sim.Trace.memory ()) 1)

(* Wall-clock samples are the only scheduling-dependent instruments:
   every second-valued metric — [*.wall_s], the per-worker
   [pool.worker_{busy,claim,idle}_s] histograms (sample count = worker
   count) and the [span.*_s] histograms — carries the [_s] suffix by
   convention, so the determinism filters drop on that suffix. The jobs
   determinism guarantee covers everything else. *)
let drop_wall snap =
  List.filter
    (fun (name, _) -> not (Astring.String.is_suffix ~affix:"_s" name))
    snap

(* Likewise for event streams: [Cell_end] and [Span] carry a wall-clock
   payload (zeroed), and the drain-level [pool.*] span triple rides the
   scheduling-dependent stats side channel (dropped wholesale). *)
let normalise_wall events =
  List.filter_map
    (fun (ev : Sim.Trace.event) ->
      match ev with
      | Sim.Trace.Cell_end { cell; wall_s = _ } ->
        Some (Sim.Trace.Cell_end { cell; wall_s = 0.0 })
      | Sim.Trace.Span { name; _ }
        when Astring.String.is_prefix ~affix:"pool." name ->
        None
      | Sim.Trace.Span { name; count; wall_s = _ } ->
        Some (Sim.Trace.Span { name; count; wall_s = 0.0 })
      | ev -> Some ev)
    events

(* [at jobs] runs one telemetry-on campaign and returns its wall-free
   (metrics, trace); the run at [parallel_jobs] must equal the jobs = 1
   pair [(m1, t1)]. *)
let check_same_at_parallel_jobs (m1, t1) at =
  let mn, tn = at parallel_jobs in
  check Alcotest.bool
    (Printf.sprintf "metrics identical at jobs=%d" parallel_jobs)
    true (m1 = mn);
  check Alcotest.bool
    (Printf.sprintf "trace identical at jobs=%d" parallel_jobs)
    true (t1 = tn)

let test_harness_telemetry_jobs_determinism () =
  let at jobs =
    let m = Stdx.Metrics.create () in
    let tr = Sim.Trace.memory () in
    let config = harness_config ~jobs in
    ignore
      (Sim.Harness.run ~metrics:m ~trace:tr ~config ~spec:leader
         ~adversaries:(Sim.Adversary.standard_suite ())
         ());
    (drop_wall (Stdx.Metrics.snapshot m), normalise_wall (Sim.Trace.events tr))
  in
  let m1, t1 = at 1 in
  check_same_at_parallel_jobs (m1, t1) at

let test_chaos_telemetry_jobs_determinism () =
  let at jobs =
    let m = Stdx.Metrics.create () in
    let tr = Sim.Trace.memory () in
    let config = chaos_config ~jobs in
    ignore
      (Sim.Harness.Chaos.run ~metrics:m ~trace:tr ~config ~spec:leader
         ~adversaries:(Sim.Adversary.standard_suite ())
         ());
    (drop_wall (Stdx.Metrics.snapshot m), normalise_wall (Sim.Trace.events tr))
  in
  let m1, t1 = at 1 in
  check_same_at_parallel_jobs (m1, t1) at;
  check Alcotest.bool "cell markers bracket each campaign run" true
    (match t1 with
    | Sim.Trace.Cell_start { cell = 0; label } :: _ ->
      Astring.String.is_infix ~affix:"campaign 1" label
    | _ -> false)

(* Hunt telemetry: the hunt.* counters, per-trial badness histogram and
   Hunt_trial/Hunt_shrink stream are merged per-cell in trial order, so
   apart from wall clocks they must be identical at any jobs count. *)
let hunt_config ~jobs =
  Sim.Hunt.Config.(
    default |> with_trials 6 |> with_phases 2 |> with_phase_rounds 60
    |> with_events 1 |> with_time_bound 8 |> with_shrink_budget 24
    |> with_jobs jobs)

let test_hunt_telemetry_jobs_determinism () =
  let at jobs =
    let m = Stdx.Metrics.create () in
    let tr = Sim.Trace.memory () in
    let config = hunt_config ~jobs in
    ignore
      (Sim.Hunt.run ~metrics:m ~trace:tr ~config ~spec:leader
         ~adversaries:(Sim.Adversary.standard_suite ())
         ());
    (drop_wall (Stdx.Metrics.snapshot m), normalise_wall (Sim.Trace.events tr))
  in
  let m1, t1 = at 1 in
  check Alcotest.bool "hunt counters present" true
    (List.mem_assoc "hunt.schedules_tried" m1);
  check Alcotest.bool "one Hunt_trial per trial" true
    (List.length
       (List.filter
          (function Sim.Trace.Hunt_trial _ -> true | _ -> false)
          t1)
    = 6);
  check_same_at_parallel_jobs (m1, t1) at

(* The hunt's report must not depend on telemetry being on. The two runs
   share one physical adversary list so the reports' schedules reference
   physically equal adversary records and polymorphic equality never
   reaches a closure. *)
let test_hunt_differential () =
  let adversaries = Sim.Adversary.standard_suite () in
  let go ?metrics ?trace () =
    Sim.Hunt.run ?metrics ?trace ~config:(hunt_config ~jobs:1) ~spec:leader
      ~adversaries ()
  in
  let plain = go () in
  check Alcotest.bool "hunt report identical with telemetry on" true
    (plain
    = go ~metrics:(Stdx.Metrics.create ()) ~trace:(Sim.Trace.memory ()) ())

let suite =
  [
    ( "stdx.metrics",
      [
        case "counters and gauges" test_counters_and_gauges;
        case "histogram bucket edges" test_histogram_bucket_edges;
        case "kind/layout/finiteness rejects" test_metrics_rejects;
        case "concurrent increments sum exactly"
          test_concurrent_increments_sum_exactly;
        case "merge is deterministic and additive" test_merge_determinism;
        case "timed records even on raise" test_timed;
        case "json and table rendering" test_metrics_json;
      ] );
    ( "sim.trace",
      [
        case "null writer is inert" test_null_writer;
        case "memory sink keeps every event" test_memory_writer;
        case "jsonl round trip (all variants)" test_jsonl_round_trip;
        test_jsonl_round_trip_qcheck;
        case "jsonl writer/reader round trip" test_jsonl_writer_and_reader;
        case "reader reports line numbers" test_read_jsonl_errors;
        test_readers_survive_damage;
      ] );
    ( "sim.telemetry",
      [
        case "engine emits seam events" test_engine_emits_seam_events;
        case "engine metrics content" test_engine_metrics_content;
        case "engine differential: telemetry inert" test_engine_differential;
        case "multi-phase differential: telemetry inert"
          test_multi_phase_differential;
        case "harness differential: telemetry inert"
          test_harness_differential;
        case "chaos differential: telemetry inert" test_chaos_differential;
        case "harness telemetry jobs determinism"
          test_harness_telemetry_jobs_determinism;
        case "chaos telemetry jobs determinism"
          test_chaos_telemetry_jobs_determinism;
        case "hunt telemetry jobs determinism"
          test_hunt_telemetry_jobs_determinism;
        case "hunt differential: telemetry inert" test_hunt_differential;
      ] );
  ]
