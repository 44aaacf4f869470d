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

let test_counters () =
  let m = Stdx.Metrics.create () in
  Stdx.Metrics.incr m "b";
  Stdx.Metrics.incr ~by:41 m "b";
  Stdx.Metrics.incr m "a";
  let snap = Stdx.Metrics.snapshot m in
  check
    Alcotest.(list string)
    "snapshot sorted by name" [ "a"; "b" ] (List.map fst snap);
  check Alcotest.bool "counter sums" true
    (Stdx.Metrics.find snap "b" = Some (Stdx.Metrics.Counter 42));
  check Alcotest.bool "missing name" true
    (Stdx.Metrics.find snap "zzz" = None)

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
    (Stdx.Pool.exec ~jobs:parallel_jobs tasks (fun ~worker:_ i ->
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
  (match Stdx.Metrics.find a "rec" with
  | Some (Stdx.Metrics.Histogram h) ->
    check Alcotest.int "histogram counts add" 10 h.count;
    check (Alcotest.float 1e-9) "histogram sums add" 45.0 h.sum
  | _ -> Alcotest.fail "histogram missing");
  rejects "merge layout mismatch" (fun () ->
      let m = Stdx.Metrics.create () in
      Stdx.Metrics.observe ~buckets:[| 1.0 |] m "rec" 0.5;
      Stdx.Metrics.merge m (List.hd snaps))

(* Random registry scripts over a few names, so kinds and layouts
   clash: the batched, cleared and registry-to-registry paths must
   read exactly as the one-call-at-a-time, fresh and snapshot ones. *)
type op =
  | Op_incr of string * int
  | Op_observe of string * float * float array option

let op_names = [| "a"; "b"; "h"; "g"; "engine.runs" |]

let gen_ops =
  let open QCheck.Gen in
  let name =
    (* the same strings, or equal copies: both lookups are exercised *)
    map2
      (fun i copy ->
        let n = op_names.(i) in
        if copy then String.sub n 0 (String.length n) else n)
      (int_bound (Array.length op_names - 1))
      bool
  in
  let layout =
    oneofl [ None; Some [| 1.0; 2.0 |]; Some [| 1.0; 5.0; 10.0 |] ]
  in
  list_size (int_bound 12)
    (oneof
       [
         map2 (fun n by -> Op_incr (n, by)) name (int_range (-3) 9);
         map3 (fun n x l -> Op_observe (n, x, l)) name
           (oneofl [ 0.5; 1.0; 3.0; 7.25; 1e16; -1e16 ])
           layout;
       ])

let print_ops ops =
  String.concat "; "
    (List.map
       (function
         | Op_incr (n, by) -> Printf.sprintf "incr %s %d" n by
         | Op_observe (n, x, l) ->
           Printf.sprintf "observe %s %g%s" n x
             (if l = None then "" else " (layout)"))
       ops)

let arb_ops = QCheck.make ~print:print_ops gen_ops

(* Apply each op on its own; which ones raised. *)
let run_ops m ops =
  List.map
    (fun op ->
      match
        match op with
        | Op_incr (n, by) -> Stdx.Metrics.incr ~by m n
        | Op_observe (n, x, buckets) -> Stdx.Metrics.observe ?buckets m n x
      with
      | () -> true
      | exception Invalid_argument _ -> false)
    ops

let test_record_qcheck =
  qcheck ~count:500 "record equals its calls one by one" arb_ops (fun ops ->
      let updates =
        List.filter_map
          (function
            | Op_incr (n, by) -> Some (Stdx.Metrics.Incr (n, by))
            | Op_observe (n, x, None) -> Some (Stdx.Metrics.Observe (n, x))
            | Op_observe (_, _, Some _) -> None)
          ops
      in
      let batched = Stdx.Metrics.create () in
      let single = Stdx.Metrics.create () in
      let raised =
        match Stdx.Metrics.record batched updates with
        | () -> false
        | exception Invalid_argument _ -> true
      in
      (* one by one, stopping at the first that raises *)
      let rec go = function
        | [] -> false
        | u :: rest -> (
          match
            match u with
            | Stdx.Metrics.Incr (n, by) -> Stdx.Metrics.incr ~by single n
            | Stdx.Metrics.Observe (n, x) -> Stdx.Metrics.observe single n x
          with
          | () -> go rest
          | exception Invalid_argument _ -> true)
      in
      raised = go updates
      && Stdx.Metrics.snapshot batched = Stdx.Metrics.snapshot single)

let test_clear_qcheck =
  qcheck ~count:500 "a cleared registry reads as a fresh one"
    QCheck.(pair arb_ops arb_ops)
    (fun (before, after) ->
      let reused = Stdx.Metrics.create () in
      ignore (run_ops reused before);
      Stdx.Metrics.clear reused;
      let empty = Stdx.Metrics.snapshot reused = [] in
      let fresh = Stdx.Metrics.create () in
      empty
      && run_ops reused after = run_ops fresh after
      && Stdx.Metrics.snapshot reused = Stdx.Metrics.snapshot fresh)

let test_add_counts_qcheck =
  qcheck ~count:500 "add_counts and rest equal the snapshot merge"
    QCheck.(triple arb_ops arb_ops arb_ops)
    (fun (target_ops, idle_ops, cell_ops) ->
      let cell = Stdx.Metrics.create () in
      ignore (run_ops cell cell_ops);
      let by_snapshot = Stdx.Metrics.create () in
      ignore (run_ops by_snapshot target_ops);
      (* the same target contents over idle slots of other instruments *)
      let by_registry = Stdx.Metrics.create () in
      ignore (run_ops by_registry idle_ops);
      Stdx.Metrics.clear by_registry;
      ignore (run_ops by_registry target_ops);
      let outcome f =
        match f () with () -> true | exception Invalid_argument _ -> false
      in
      let a =
        outcome (fun () ->
            Stdx.Metrics.merge by_snapshot (Stdx.Metrics.snapshot cell))
      in
      let b =
        outcome (fun () ->
            Stdx.Metrics.add_counts by_registry cell;
            Stdx.Metrics.merge_ordered by_registry (Stdx.Metrics.rest cell))
      in
      a = b
      && Stdx.Metrics.snapshot by_snapshot = Stdx.Metrics.snapshot by_registry)

let test_metrics_json () =
  let m = Stdx.Metrics.create () in
  Stdx.Metrics.incr ~by:2 m "a";
  check Alcotest.string "counters only"
    "{\"counters\":{\"a\":2},\"histograms\":{}}"
    (Stdx.Metrics.to_json (Stdx.Metrics.snapshot m));
  Stdx.Metrics.observe ~buckets:[| 1.0 |] m "h" 0.5;
  check Alcotest.string "histogram block"
    "{\"counters\":{\"a\":2},\"histograms\":{\"h\":{\"buckets\":[1],\"counts\":[1,0],\"count\":1,\"sum\":0.5}}}"
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
        if ev <> ev' then
          Alcotest.failf "round trip changed %s" (Sim.Trace.to_json ev)
      | Error msg ->
        Alcotest.failf "%s: did not parse back: %s" (Sim.Trace.to_json ev) msg)
    sample_events

(* The bytes, not just the round trip: [of_json] accepts any spelling
   that parses back, so the writer's exact output is pinned here, one
   golden line per [sample_events] entry, plus events whose names need
   escaping and floats on every [%.17g] path (integral, fixed,
   exponent, subnormal, negative zero). *)
let golden_lines =
  [
    {|{"ev":"meta","label":"A(4,1) \"quoted\"","n":4,"f":1,"c":2,"time_bound":9}|};
    {|{"ev":"meta","label":"","n":1,"f":0,"c":2,"time_bound":null}|};
    {|{"ev":"cell-start","cell":0,"label":"stuck f=[0] seed=1"}|};
    {|{"ev":"phase-start","round":0,"phase":0,"adversary":"split-brain","faulty":[0,3]}|};
    {|{"ev":"corruption","round":12,"phase":0,"requested":3,"victims":[]}|};
    {|{"ev":"corruption","round":12,"phase":2,"requested":2,"victims":[1,2]}|};
    {|{"ev":"detector-reset","round":12,"phase":0}|};
    {|{"ev":"verdict","round":60,"phase":0,"stabilized":14,"recovery":2}|};
    {|{"ev":"verdict","round":60,"phase":1,"stabilized":null,"recovery":null}|};
    {|{"ev":"hunt-trial","trial":0,"seed":927364,"score":0,"hit":false}|};
    {|{"ev":"hunt-trial","trial":7,"seed":11,"score":1000000.125,"hit":true}|};
    {|{"ev":"hunt-shrink","trial":7,"steps":31,"kept":5,"size":28,"score":1000000}|};
    {|{"ev":"cell-end","cell":0,"wall_s":0.0012340000000000001}|};
    {|{"ev":"cell-end","cell":1,"wall_s":0}|};
  ]

let golden_extra =
  [
    ( Sim.Trace.Span
        { name = "engine.step\t\"x\"\001"; count = 3; wall_s = 0.1 +. 0.2 },
      {|{"ev":"span","name":"engine.step\t\"x\"\u0001","count":3,"wall_s":0.30000000000000004}|}
    );
    ( Sim.Trace.Span { name = "pool.idle"; count = 0; wall_s = 1e-7 },
      {|{"ev":"span","name":"pool.idle","count":0,"wall_s":9.9999999999999995e-08}|}
    );
    ( Sim.Trace.Cell_end { cell = 12; wall_s = 123456.789 },
      {|{"ev":"cell-end","cell":12,"wall_s":123456.789}|} );
    ( Sim.Trace.Cell_end { cell = 13; wall_s = 1e21 },
      {|{"ev":"cell-end","cell":13,"wall_s":1e+21}|} );
    ( Sim.Trace.Cell_end { cell = 14; wall_s = 1e17 },
      {|{"ev":"cell-end","cell":14,"wall_s":1e+17}|} );
    ( Sim.Trace.Cell_end { cell = 15; wall_s = 5e-324 },
      {|{"ev":"cell-end","cell":15,"wall_s":4.9406564584124654e-324}|} );
    ( Sim.Trace.Cell_end { cell = 16; wall_s = -0.0 },
      {|{"ev":"cell-end","cell":16,"wall_s":-0}|} );
    ( Sim.Trace.Hunt_trial
        { trial = -1; seed = max_int; score = 2.5e-5; hit = false },
      {|{"ev":"hunt-trial","trial":-1,"seed":4611686018427387903,"score":2.5000000000000001e-05,"hit":false}|}
    );
    ( Sim.Trace.Hunt_shrink
        {
          trial = 3;
          steps = 0;
          kept = 0;
          size = 0;
          score = 1000000.0 +. (1.0 /. 3.0);
        },
      {|{"ev":"hunt-shrink","trial":3,"steps":0,"kept":0,"size":0,"score":1000000.3333333334}|}
    );
    ( Sim.Trace.Phase_start
        { round = 5; phase = 1; adversary = "caf\xc3\xa9"; faulty = [] },
      "{\"ev\":\"phase-start\",\"round\":5,\"phase\":1,\"adversary\":\"caf\xc3\xa9\",\"faulty\":[]}"
    );
    ( Sim.Trace.Corruption
        { round = 7; phase = 1; requested = 1; victims = [ 2 ] },
      {|{"ev":"corruption","round":7,"phase":1,"requested":1,"victims":[2]}|} );
    ( Sim.Trace.Meta
        { label = "\\"; n = 0; f = 0; c = 0; time_bound = Some (-3) },
      {|{"ev":"meta","label":"\\","n":0,"f":0,"c":0,"time_bound":-3}|} );
  ]

let test_golden_to_json () =
  check
    Alcotest.(list string)
    "to_json of sample_events" golden_lines
    (List.map Sim.Trace.to_json sample_events);
  List.iter
    (fun (ev, line) -> check Alcotest.string line line (Sim.Trace.to_json ev))
    golden_extra

let test_golden_jsonl_writer () =
  let path = Filename.temp_file "trace" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc ->
          let t = Sim.Trace.jsonl oc in
          List.iter (Sim.Trace.emit t) sample_events);
      check Alcotest.string "one golden line per event, newline-terminated"
        (String.concat "" (List.map (fun l -> l ^ "\n") golden_lines))
        (In_channel.with_open_bin path In_channel.input_all))

(* Every float field is spelled exactly as C's [%.17g]: random bit
   patterns cover the whole finite range, two generators the wall-clock
   seconds and scores a trace actually carries, and the last short
   decimals of every magnitude. *)
let test_float_spelling_qcheck =
  let any_finite =
    QCheck.map
      (fun bits ->
        let x = Int64.float_of_bits bits in
        if Float.is_finite x then x else 0.0)
      QCheck.int64
  in
  let wall = QCheck.float_bound_inclusive 10.0 in
  let score =
    QCheck.map
      (fun (failed, r) ->
        (1e6 *. float_of_int failed) +. (float_of_int r /. 8.0))
      QCheck.(pair (int_bound 3) (int_bound 400))
  in
  (* few significant digits: [%.17g] drops the trailing zeros *)
  let short =
    QCheck.map
      (fun (digits, x) ->
        float_of_string (Printf.sprintf "%.*g" (1 + digits) (10.0 ** x)))
      QCheck.(pair (int_bound 5) (float_range (-6.0) 16.0))
  in
  qcheck ~count:2000 "float fields spelled exactly as %.17g"
    QCheck.(quad any_finite wall score short)
    (fun (a, b, c, d) ->
      List.for_all
        (fun x ->
          Sim.Trace.to_json (Sim.Trace.Cell_end { cell = 0; wall_s = x })
          = Printf.sprintf
              "{\"ev\":\"cell-end\",\"cell\":0,\"wall_s\":%.17g}" x)
        [ a; b; c; d; -.a; -.d ])

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
      let back =
        Sim.Trace.parse_jsonl (In_channel.with_open_bin path In_channel.input_all)
      in
      check Alcotest.bool "file round-trips the stream" true
        (back = Ok sample_events))

let test_read_jsonl_errors () =
  let parse = Sim.Trace.parse_jsonl in
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
   beat, a hunt corpus entry) are truncated and byte-flipped at random; the single-value
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
       (beat :: Test_stdx.corpus_line () :: Sim.Schedule.to_json schedule
       :: List.map Sim.Trace.to_json sample_events))

(* [Corpus.read] on [text], through a file as the reader takes a
   channel. *)
let read_corpus ~adversaries text =
  let path = Filename.temp_file "corpus" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc -> output_string oc text);
      In_channel.with_open_bin path (Sim.Hunt.Corpus.read ~adversaries))

let damage line ~cut ~flips =
  let b = Bytes.of_string line in
  List.iter
    (fun (pos, byte) ->
      if Bytes.length b > 0 then
        Bytes.set b (pos mod Bytes.length b)
          (Char.chr (if byte = Char.code '\n' then Char.code ' ' else byte)))
    flips;
  Bytes.sub_string b 0 (min (Bytes.length b) cut)

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
        ( Sim.Trace.parse_jsonl (String.concat "\n" [ trace_line; bad; trace_line; "" ]),
          (* A file whose only line was cut off mid-write. *)
          Sim.Trace.parse_jsonl bad,
          Stdx.Heartbeat.latest ~path:"hb" (lines.(0) ^ "\n" ^ bad ^ "\n"),
          read_corpus ~adversaries:(Sim.Adversary.registry ())
            (String.concat "\n" [ lines.(1); bad; lines.(1); "" ]) )
      with
      | exception e ->
        QCheck.Test.fail_reportf "%S raised %s" bad (Printexc.to_string e)
      | middle, alone, beat, corpus ->
        names_line 2 middle && names_line 1 alone && names_line 2 beat
        && names_line 2 corpus)

(* One line rule for every JSONL reader ([Stdx.Json.lines]): a trace
   through [Trace.parse_jsonl], a hunt corpus through [Corpus.read] and
   a heartbeat file through [Heartbeat.complete_lines] split the same
   text alike. In each template [V] stands for a line the reader
   accepts and [B] for a malformed one; [lines] are the numbers of the
   non-blank lines, [bad] the one the parsers name, and [terminated]
   whether the last line ends in a newline (the heartbeat reader leaves
   an unterminated last line for its next read). *)
let line_rule_cases =
  [
    ("blank lines", "\nV\n\n  \t\nV\n", [ 2; 5 ], None, true);
    ("CRLF endings", "V\r\n\r\nV\r\n", [ 1; 3 ], None, true);
    ("missing final newline", "V\n\nV", [ 1; 3 ], None, false);
    ("unterminated tail", "V\nV\nB", [ 1; 2; 3 ], Some 3, false);
    ("malformed middle line", "V\r\nB\n\nV\n", [ 1; 2; 4 ], Some 2, true);
  ]

let test_shared_line_rule () =
  let adversaries = Sim.Adversary.registry () in
  let trace_line =
    Sim.Trace.to_json (Sim.Trace.Detector_reset { round = 1; phase = 0 })
  in
  let corpus_line =
    Sim.Hunt.Corpus.entry_to_json
      {
        Sim.Hunt.Corpus.label = "leader";
        n = 4;
        f = 1;
        c = 5;
        hunt_seed = 1;
        trial = 0;
        run_seed = 1;
        min_suffix = 10;
        time_bound = None;
        cls = Sim.Hunt.Failed;
        badness =
          { Sim.Hunt.failed_phases = 1; worst_ratio = 0.0; clamped_events = 0 };
        size = 1;
        shrink_steps = 0;
        shrink_kept = 0;
        schedule =
          Sim.Schedule.static ~adversary:(List.hd adversaries) ~faulty:[ 0 ]
            ~rounds:20;
      }
  in
  let fill template v =
    String.concat ""
      (List.map
         (function
           | 'V' -> v
           | 'B' -> String.sub v 0 (String.length v / 2)
           | ch -> String.make 1 ch)
         (List.of_seq (String.to_seq template)))
  in

  let verdict = function
    | Ok records -> Ok (List.length records)
    | Error msg -> Error msg
  in
  List.iter
    (fun (name, template, lines, bad, terminated) ->
      let check_parser reader got =
        match (bad, got) with
        | None, Ok n ->
          check Alcotest.int
            (Printf.sprintf "%s: %s records" name reader)
            (List.length lines) n
        | Some line, Error msg ->
          check Alcotest.bool
            (Printf.sprintf "%s: %s names line %d (%s)" name reader line msg)
            true
            (Astring.String.is_prefix
               ~affix:(Printf.sprintf "line %d: " line)
               msg)
        | _ -> Alcotest.failf "%s: %s gave the wrong verdict" name reader
      in
      check_parser "Trace.parse_jsonl"
        (verdict (Sim.Trace.parse_jsonl (fill template trace_line)));
      check_parser "Corpus.read"
        (verdict (read_corpus ~adversaries (fill template corpus_line)));
      let complete =
        List.map fst (Stdx.Heartbeat.complete_lines (fill template trace_line))
      in
      check (Alcotest.list Alcotest.int)
        (name ^ ": complete_lines drops only an unterminated tail")
        (if terminated then lines
         else List.filteri (fun i _ -> i < List.length lines - 1) lines)
        complete)
    line_rule_cases

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
  {
    Sim.Hunt.Config.default with
    trials = 6;
    phases = 2;
    phase_rounds = 60;
    events = 1;
    time_bound = Some 8;
    shrink_budget = 24;
    jobs;
  }

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
        case "counters" test_counters;
        case "histogram bucket edges" test_histogram_bucket_edges;
        case "kind/layout/finiteness rejects" test_metrics_rejects;
        case "concurrent increments sum exactly"
          test_concurrent_increments_sum_exactly;
        case "merge is deterministic and additive" test_merge_determinism;
        case "json and table rendering" test_metrics_json;
        test_record_qcheck;
        test_clear_qcheck;
        test_add_counts_qcheck;
      ] );
    ( "sim.trace",
      [
        case "null writer is inert" test_null_writer;
        case "memory sink keeps every event" test_memory_writer;
        case "jsonl round trip (all variants)" test_jsonl_round_trip;
        test_jsonl_round_trip_qcheck;
        case "jsonl writer/reader round trip" test_jsonl_writer_and_reader;
        case "reader reports line numbers" test_read_jsonl_errors;
        case "trace, corpus and heartbeat readers share one line rule"
          test_shared_line_rule;
        test_readers_survive_damage;
        case "golden bytes: to_json" test_golden_to_json;
        case "golden bytes: jsonl writer" test_golden_jsonl_writer;
        test_float_spelling_qcheck;
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
