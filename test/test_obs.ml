(* Live observability layer: Stdx.Span, Stdx.Heartbeat, and the
   differential guarantee that spans + heartbeat streaming change
   nothing about a run. Complements test_telemetry.ml, which covers the
   metrics/trace side of the same contract. *)

let check = Alcotest.check
let case name f = Alcotest.test_case name `Quick f

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

(* A settable mock clock: spans and heartbeats take ?clock precisely so
   these tests can script time. *)
let mock_clock start =
  let t = ref start in
  ((fun () -> !t), fun v -> t := v)

(* ------------------------------------------------------------------ *)
(* Stdx.Span                                                            *)
(* ------------------------------------------------------------------ *)

let test_span_records_into_metrics () =
  let clock, set = mock_clock 0.0 in
  let m = Stdx.Metrics.create () in
  let sp = Stdx.Span.create ~clock ~metrics:m () in
  check Alcotest.bool "live context is enabled" true (Stdx.Span.enabled sp);
  check (Alcotest.float 0.0) "now reads the clock" 0.0 (Stdx.Span.now sp);
  let v = Stdx.Span.with_ sp "craft" (fun () -> set 2.5; 41) in
  check Alcotest.int "with_ returns the result" 41 v;
  Stdx.Span.record sp "craft" 0.5;
  match Stdx.Metrics.find (Stdx.Metrics.snapshot m) "span.craft_s" with
  | Some (Stdx.Metrics.Histogram h) ->
    check Alcotest.int "both recordings landed" 2 h.count;
    check (Alcotest.float 1e-9) "durations sum" 3.0 h.sum
  | _ -> Alcotest.fail "span.craft_s histogram missing"

let test_span_nesting_and_exceptions () =
  let clock, set = mock_clock 0.0 in
  let m = Stdx.Metrics.create () in
  let sp = Stdx.Span.create ~clock ~metrics:m () in
  Stdx.Span.with_ sp "outer" (fun () ->
      set 1.0;
      Stdx.Span.with_ sp "inner" (fun () -> set 4.0));
  let snap = Stdx.Metrics.snapshot m in
  (match Stdx.Metrics.find snap "span.outer_s" with
  | Some (Stdx.Metrics.Histogram h) ->
    check (Alcotest.float 1e-9) "outer covers inner" 4.0 h.sum
  | _ -> Alcotest.fail "outer span missing");
  (match Stdx.Metrics.find snap "span.inner_s" with
  | Some (Stdx.Metrics.Histogram h) ->
    check (Alcotest.float 1e-9) "inner timed alone" 3.0 h.sum
  | _ -> Alcotest.fail "inner span missing");
  (match
     Stdx.Span.with_ sp "raising" (fun () ->
         set 10.0;
         failwith "boom")
   with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "with_ swallowed the exception");
  match Stdx.Metrics.find (Stdx.Metrics.snapshot m) "span.raising_s" with
  | Some (Stdx.Metrics.Histogram h) ->
    check Alcotest.int "recorded even on raise" 1 h.count
  | _ -> Alcotest.fail "raising span missing"

let test_span_on_record_hook_and_count () =
  let seen = ref [] in
  let sp =
    Stdx.Span.create
      ~on_record:(fun name count secs -> seen := (name, count, secs) :: !seen)
      ()
  in
  Stdx.Span.record ~count:16 sp "step" 0.25;
  Stdx.Span.record sp "detect" 0.5;
  check Alcotest.bool "hook sees name, count and seconds" true
    (List.rev !seen = [ ("step", 16, 0.25); ("detect", 1, 0.5) ])

let test_span_clamps_backward_clock () =
  (* The wall clock is not monotonic: a span whose section straddles a
     clock step backwards must record 0, not a negative duration. *)
  let clock, set = mock_clock 100.0 in
  let m = Stdx.Metrics.create () in
  let sp = Stdx.Span.create ~clock ~metrics:m () in
  Stdx.Span.with_ sp "warp" (fun () -> set 40.0);
  Stdx.Span.record sp "warp" (-5.0);
  match Stdx.Metrics.find (Stdx.Metrics.snapshot m) "span.warp_s" with
  | Some (Stdx.Metrics.Histogram h) ->
    check Alcotest.int "both recorded" 2 h.count;
    check (Alcotest.float 0.0) "negative elapsed clamped to 0" 0.0 h.sum
  | _ -> Alcotest.fail "warp span missing"

let test_span_disabled_is_inert () =
  let sp = Stdx.Span.disabled in
  check Alcotest.bool "disabled" false (Stdx.Span.enabled sp);
  check (Alcotest.float 0.0) "now is 0" 0.0 (Stdx.Span.now sp);
  Stdx.Span.record sp "x" 1.0;
  check Alcotest.int "with_ still runs the function" 7
    (Stdx.Span.with_ sp "x" (fun () -> 7))

(* ------------------------------------------------------------------ *)
(* Stdx.Metrics.merge error paths                                       *)
(* ------------------------------------------------------------------ *)

let test_merge_error_paths () =
  let source kind =
    let w = Stdx.Metrics.create () in
    (match kind with
    | `Counter -> Stdx.Metrics.incr w "x"
    | `Hist -> Stdx.Metrics.observe ~buckets:[| 1.0; 2.0 |] w "x" 0.5);
    Stdx.Metrics.snapshot w
  in
  let target kind =
    let m = Stdx.Metrics.create () in
    (match kind with
    | `Counter -> Stdx.Metrics.incr m "x"
    | `Hist -> Stdx.Metrics.observe ~buckets:[| 8.0 |] m "x" 0.5);
    m
  in
  let clash a b name =
    rejects name (fun () -> Stdx.Metrics.merge (target a) (source b))
  in
  clash `Counter `Hist "histogram into counter";
  clash `Hist `Counter "counter into histogram";
  clash `Hist `Hist "bucket layout mismatch";
  (* and the messages name the instrument *)
  (match Stdx.Metrics.merge (target `Hist) (source `Hist) with
  | exception Invalid_argument msg ->
    check Alcotest.bool "layout mismatch names the histogram" true
      (Astring.String.is_infix ~affix:"\"x\"" msg
      && Astring.String.is_infix ~affix:"bucket layout" msg)
  | _ -> Alcotest.fail "layout mismatch accepted");
  match Stdx.Metrics.merge (target `Counter) (source `Hist) with
  | exception Invalid_argument msg ->
    check Alcotest.bool "kind mismatch names the instrument" true
      (Astring.String.is_infix ~affix:"\"x\"" msg)
  | _ -> Alcotest.fail "kind mismatch accepted"

(* ------------------------------------------------------------------ *)
(* Stdx.Heartbeat                                                       *)
(* ------------------------------------------------------------------ *)

(* Run [f hb] against a fresh heartbeat writing to a temp file; return
   the complete lines it produced. *)
let with_heartbeat ?clock ?label ~interval_s f =
  let path = Filename.temp_file "hb" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      let hb = Stdx.Heartbeat.create ?clock ?label ~interval_s ~out:oc () in
      Fun.protect ~finally:(fun () -> close_out oc) (fun () -> f hb);
      let ic = open_in path in
      let lines = ref [] in
      (try
         while true do
           lines := input_line ic :: !lines
         done
       with End_of_file -> ());
      close_in ic;
      List.rev !lines)

let test_heartbeat_rejects_bad_interval () =
  rejects "negative interval" (fun () ->
      ignore
        (with_heartbeat ~interval_s:(-1.0) (fun _ -> ())));
  rejects "non-finite interval" (fun () ->
      ignore (with_heartbeat ~interval_s:Float.nan (fun _ -> ())))

let test_heartbeat_terminal_line_schema () =
  let clock, set = mock_clock 0.0 in
  let lines =
    with_heartbeat ~clock ~label:"A(4,1) chaos" ~interval_s:1000.0 (fun hb ->
        Stdx.Heartbeat.set_totals hb ~cells:3 ~cost:30.0;
        Stdx.Heartbeat.set_totals hb ~cells:1 ~cost:10.0;
        let m = Stdx.Metrics.create () in
        Stdx.Metrics.incr ~by:7 m "engine.runs";
        Stdx.Heartbeat.add hb m;
        Stdx.Heartbeat.cell_done ~rounds:120 ~worker:1 ~busy_s:1.0 ~now:2.0
          ~cost:10.0 hb;
        Stdx.Heartbeat.hit hb "failed";
        Stdx.Heartbeat.hit hb "failed";
        Stdx.Heartbeat.hit hb "clamped";
        set 4.0;
        Stdx.Heartbeat.finish hb;
        (* idempotent: neither a second finish nor a later feed emits *)
        Stdx.Heartbeat.finish hb;
        Stdx.Heartbeat.cell_done ~worker:1 ~busy_s:1.0 ~now:5000.0 ~cost:1.0
          hb)
  in
  check Alcotest.int "interval 1000s: only the terminal line" 1
    (List.length lines);
  let j = Stdx.Json.parse (List.hd lines) in
  let f name conv = conv name (Stdx.Json.field j name) in
  check Alcotest.string "kind" "heartbeat" (f "kind" Stdx.Json.to_string);
  check Alcotest.string "label" "A(4,1) chaos" (f "label" Stdx.Json.to_string);
  check Alcotest.int "seq" 1 (f "seq" Stdx.Json.to_int);
  check Alcotest.bool "final" true (f "final" Stdx.Json.to_bool);
  check (Alcotest.float 0.0) "t_s from the mock clock" 4.0
    (f "t_s" Stdx.Json.to_float);
  (* 2 s spent on 10 of 40 cost units -> 6 s to go *)
  check (Alcotest.float 1e-9) "eta extrapolates the cost model" 12.0
    (f "eta_s" Stdx.Json.to_float);
  check Alcotest.int "cells_done" 1 (f "cells_done" Stdx.Json.to_int);
  check Alcotest.int "set_totals adds: cells_total" 4
    (f "cells_total" Stdx.Json.to_int);
  check (Alcotest.float 0.0) "set_totals adds: cost_total" 40.0
    (f "cost_total" Stdx.Json.to_float);
  check (Alcotest.float 0.0) "cost_done" 10.0 (f "cost_done" Stdx.Json.to_float);
  check Alcotest.int "rounds" 120 (f "rounds" Stdx.Json.to_int);
  (match Stdx.Json.field j "hits" with
  | Stdx.Json.Object kvs ->
    check Alcotest.bool "hits tally sorted by class" true
      (List.map (fun (k, v) -> (k, Stdx.Json.to_int k v)) kvs
      = [ ("clamped", 1); ("failed", 2) ])
  | _ -> Alcotest.fail "hits must be an object");
  (let w = Stdx.Json.field j "workers" in
   check Alcotest.int "worker array grown to the highest id" 2
     (Stdx.Json.to_int "count" (Stdx.Json.field w "count"));
   check Alcotest.bool "busy_s per worker" true
     (List.map (Stdx.Json.to_float "busy_s")
        (Stdx.Json.to_list "busy_s" (Stdx.Json.field w "busy_s"))
     = [ 0.0; 1.0 ]);
   (* 1 busy second over 2 workers x 4 elapsed seconds *)
   check (Alcotest.float 1e-9) "utilization" 0.125
     (Stdx.Json.to_float "utilization" (Stdx.Json.field w "utilization")));
  (let gc = Stdx.Json.field j "gc" in
   check Alcotest.bool "gc gauges present and sane" true
     (Stdx.Json.to_float "minor_words" (Stdx.Json.field gc "minor_words")
      >= 0.0
     && Stdx.Json.to_int "heap_words" (Stdx.Json.field gc "heap_words") > 0));
  match Stdx.Json.field (Stdx.Json.field j "metrics") "counters" with
  | Stdx.Json.Object kvs ->
    check Alcotest.bool "cell counts added to the live registry" true
      (List.assoc_opt "engine.runs" kvs = Some (Stdx.Json.Int 7))
  | _ -> Alcotest.fail "metrics.counters must be an object"

(* The terminal line's bytes. The clock is scripted, so the wall fields
   ([t_s], [eta_s], [busy_s], [utilization]) are pinned as well; only
   the GC counters, read from the runtime, are masked. *)
let heartbeat_golden =
  {|{"kind":"heartbeat","label":"leader \"4\":5","seq":1,"final":true,"t_s":1.5,"eta_s":3.0000000000000004,"cells_done":1,"cells_total":3,"cost_done":0.10000000000000001,"cost_total":0.30000000000000004,"rounds":120,"hits":{"failed":1,"near-bound":1},"workers":{"count":2,"busy_s":[0,0.5],"utilization":0.16666666666666666},"gc":{...},"metrics":{"counters":{"engine.clamped_events":0,"engine.runs":7},"histograms":{"engine.recovery_rounds":{"buckets":[1,2,4,8,16,32,64,128,256,512,1024,2048,4096,8192,16384,32768,65536],"counts":[0,0,1,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0],"count":1,"sum":3},"hunt.cell_wall_s":{"buckets":[0.0001,0.00020000000000000001,0.00040000000000000002,0.00080000000000000004,0.0016000000000000001,0.0032000000000000002,0.0064000000000000003,0.012800000000000001,0.025600000000000001,0.051200000000000002,0.1024,0.20480000000000001,0.40960000000000002,0.81920000000000004,1.6384000000000001,3.2768000000000002,6.5536000000000003,13.107200000000001,26.214400000000001,52.428800000000003,104.85760000000001],"counts":[0,0,0,0,1,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0],"count":1,"sum":0.00123}}}}|}

let mask_gc line =
  let key = {|"gc":{|} in
  match Astring.String.find_sub ~sub:key line with
  | None -> Alcotest.failf "no gc object in %s" line
  | Some i ->
    let start = i + String.length key in
    let stop = String.index_from line start '}' in
    String.sub line 0 start ^ "..."
    ^ String.sub line stop (String.length line - stop)

let test_heartbeat_golden_line () =
  let clock, set = mock_clock 0.0 in
  let lines =
    with_heartbeat ~clock ~label:"leader \"4\":5" ~interval_s:1000.0 (fun hb ->
        Stdx.Heartbeat.set_totals hb ~cells:3 ~cost:(0.1 +. 0.2);
        let m = Stdx.Metrics.create () in
        Stdx.Metrics.incr ~by:7 m "engine.runs";
        Stdx.Metrics.incr ~by:0 m "engine.clamped_events";
        Stdx.Metrics.observe m "engine.recovery_rounds" 3.0;
        Stdx.Metrics.observe ~buckets:Stdx.Metrics.time_buckets m
          "hunt.cell_wall_s" 0.00123;
        Stdx.Heartbeat.add hb m;
        Stdx.Heartbeat.cell_done ~rounds:120 ~worker:1 ~busy_s:0.5 ~now:0.75
          ~cost:0.1 hb;
        Stdx.Heartbeat.hit hb "failed";
        Stdx.Heartbeat.hit hb "near-bound";
        set 1.5;
        Stdx.Heartbeat.finish hb)
  in
  check Alcotest.(list string) "terminal line bytes, gc masked"
    [ heartbeat_golden ] (List.map mask_gc lines)

(* Cells priced only as they finish announce cost 0 and add their cost
   when done, so no announced cost is ever left: the ETA extrapolates
   the cell count, and the terminal line of a finished campaign has
   none. *)
let test_heartbeat_eta_by_cells () =
  let clock, set = mock_clock 0.0 in
  let eta_of lines =
    List.map
      (fun line ->
        match Stdx.Json.field (Stdx.Json.parse line) "eta_s" with
        | Stdx.Json.Null -> None
        | v -> Some (Stdx.Json.to_float "eta_s" v))
      lines
  in
  let lines =
    with_heartbeat ~clock ~interval_s:0.0 (fun hb ->
        let cell_done cost =
          Stdx.Heartbeat.cell_done ~worker:0 ~busy_s:0.0 ~now:2.0 ~cost hb
        in
        Stdx.Heartbeat.set_totals hb ~cells:4 ~cost:0.0;
        set 2.0;
        Stdx.Heartbeat.set_totals hb ~cells:0 ~cost:10.0;
        cell_done 10.0;
        List.iter
          (fun _ ->
            Stdx.Heartbeat.set_totals hb ~cells:0 ~cost:30.0;
            cell_done 30.0)
          [ 1; 2; 3 ];
        Stdx.Heartbeat.finish hb)
  in
  (* 2 s for 1 of 4 cells -> 6 s to go; then 2 and 1 cells left *)
  check
    (Alcotest.list (Alcotest.option (Alcotest.float 1e-9)))
    "eta by cells, none at the end"
    [ Some 6.0; Some 2.0; Some (2.0 /. 3.0); None; None ]
    (eta_of lines);
  check (Alcotest.float 0.0) "cost total of the finished cells" 100.0
    (Stdx.Json.to_float "cost_total"
       (Stdx.Json.field (Stdx.Json.parse (List.nth lines 4)) "cost_total"))

(* A beat is timed by the [now] its [cell_done] carries; the mock
   clock, read at creation and by [finish] only, stays at 0 until the
   end. *)
let test_heartbeat_interval_gating () =
  let clock, set = mock_clock 0.0 in
  let cell_done hb now =
    Stdx.Heartbeat.cell_done ~worker:0 ~busy_s:0.0 ~now ~cost:1.0 hb
  in
  let lines =
    with_heartbeat ~clock ~interval_s:10.0 (fun hb ->
        Stdx.Heartbeat.set_totals hb ~cells:4 ~cost:4.0;
        cell_done hb 0.0;
        (* same instant: rate-limited *)
        cell_done hb 0.0;
        cell_done hb 11.0;
        (* just after a beat: suppressed again *)
        cell_done hb 12.0;
        set 13.0;
        Stdx.Heartbeat.finish hb)
  in
  check Alcotest.int "one interval beat plus the terminal line" 2
    (List.length lines);
  let parsed = List.map Stdx.Json.parse lines in
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.bool))
    "seq increments; only the last is final"
    [ (1, false); (2, true) ]
    (List.map
       (fun j ->
         ( Stdx.Json.to_int "seq" (Stdx.Json.field j "seq"),
           Stdx.Json.to_bool "final" (Stdx.Json.field j "final") ))
       parsed);
  check Alcotest.bool "zero interval emits on every cell" true
    (List.length
       (with_heartbeat ~clock ~interval_s:0.0 (fun hb ->
            cell_done hb 13.0;
            cell_done hb 13.0;
            (* a worker's reading, taken before it got the lock, older
               than the last beat's *)
            cell_done hb 12.0;
            Stdx.Heartbeat.finish hb))
    = 4)

let test_heartbeat_floats_round_trip () =
  (* %.17g everywhere: awkward doubles must survive a write/parse
     cycle exactly, including inside the embedded metrics snapshot. *)
  let awkward = 0.1 +. 0.2 in
  let clock, set = mock_clock 0.0 in
  let lines =
    with_heartbeat ~clock ~interval_s:1000.0 (fun hb ->
        Stdx.Heartbeat.set_totals hb ~cells:1 ~cost:(awkward *. 3.0);
        let m = Stdx.Metrics.create () in
        Stdx.Metrics.observe ~buckets:[| 1.0 |] m "h" awkward;
        Stdx.Heartbeat.add hb m;
        Stdx.Heartbeat.cell_done ~worker:0 ~busy_s:awkward ~now:0.0
          ~cost:awkward hb;
        set (1.0 /. 3.0);
        Stdx.Heartbeat.finish hb)
  in
  let j = Stdx.Json.parse (List.hd lines) in
  let exact name expect v =
    check Alcotest.bool (name ^ " round-trips exactly") true
      (Float.equal (Stdx.Json.to_float name v) expect)
  in
  exact "cost_done" awkward (Stdx.Json.field j "cost_done");
  exact "cost_total" (awkward *. 3.0) (Stdx.Json.field j "cost_total");
  exact "t_s" (1.0 /. 3.0) (Stdx.Json.field j "t_s");
  exact "busy_s"
    awkward
    (List.hd
       (Stdx.Json.to_list "busy_s"
          (Stdx.Json.field (Stdx.Json.field j "workers") "busy_s")));
  let metrics = Stdx.Json.field j "metrics" in
  let h = Stdx.Json.field (Stdx.Json.field metrics "histograms") "h" in
  exact "histogram sum" awkward (Stdx.Json.field h "sum")

(* ------------------------------------------------------------------ *)
(* Differential guarantee: spans + heartbeat are inert                  *)
(* ------------------------------------------------------------------ *)

let leader =
  Algo.Combinators.with_claimed_resilience
    (Counting.Trivial.follow_leader ~n:4 ~c:5)
    ~f:1

let test_engine_spans_differential () =
  let go ?metrics ?spans () =
    Sim.Engine.run ?metrics ?spans ~spec:leader
      ~schedule:
        (Sim.Schedule.static ~adversary:(Sim.Adversary.random_equivocate ())
           ~faulty:[ 0 ] ~rounds:200)
      ~seed:5 ()
  in
  let plain = go () in
  let m = Stdx.Metrics.create () in
  let instrumented = go ~metrics:m ~spans:(Stdx.Span.create ~metrics:m ()) () in
  check Alcotest.bool "bit-identical outcome with spans on" true
    (plain = instrumented);
  let snap = Stdx.Metrics.snapshot m in
  (* 1-in-16 sampling of rounds 0 .. rounds_simulated, starting at
     round 15 rather than the cold round 0: the sampled-round count is
     deterministic even though the recorded seconds are not. *)
  (match Stdx.Metrics.find snap "engine.sampled_rounds" with
  | Some (Stdx.Metrics.Counter c) ->
    check Alcotest.int "every 16th round from round 15 clock-sampled"
      ((plain.Sim.Engine.rounds_simulated + 1) / 16)
      c
  | _ -> Alcotest.fail "engine.sampled_rounds missing");
  List.iter
    (fun name ->
      check Alcotest.bool (name ^ " present") true (List.mem_assoc name snap))
    [ "span.engine.craft_s"; "span.engine.step_s"; "span.engine.detect_s" ]

(* A clock that ticks one second per read once the run starts (it stood
   still while the context measured it, so a read costs 0): every
   sampled engine round then times exactly 1 s per span, so each
   recorded total must equal its loop's iteration count — rounds 0 .. R
   observed, 0 .. R-1 stepped — whatever the number of sampled rounds. *)
let test_engine_span_scale () =
  let ticks = ref 0.0 and ticking = ref false in
  let clock () =
    if !ticking then ticks := !ticks +. 1.0;
    !ticks
  in
  let seen = ref [] in
  let sp =
    Stdx.Span.create ~clock
      ~on_record:(fun name count secs -> seen := (name, (count, secs)) :: !seen)
      ()
  in
  ticking := true;
  let o =
    Sim.Engine.run ~spans:sp ~spec:leader
      ~schedule:
        (Sim.Schedule.static ~adversary:(Sim.Adversary.random_equivocate ())
           ~faulty:[ 0 ] ~rounds:40)
      ~mode:Sim.Engine.Full_horizon ~seed:5 ()
  in
  let r = o.Sim.Engine.rounds_simulated in
  let expect name ~sampled secs =
    check
      Alcotest.(pair int (float 1e-9))
      name (sampled, secs) (List.assoc name !seen)
  in
  (* 41 observed rounds sample 15 and 31; the last, 40, is not stepped. *)
  check Alcotest.int "full horizon" 40 r;
  expect "engine.detect" ~sampled:2 (float_of_int (r + 1));
  expect "engine.step" ~sampled:2 (float_of_int r);
  expect "engine.craft" ~sampled:2 (float_of_int r)

(* A clock that ticks 0.25 s per read, and nothing else: the context
   measures that as its read cost and leaves it out of every section,
   so a section holds only the time that passed beyond its reads — 2 s
   for a span around a 2 s step, nothing for each sampled engine
   section, however often it is scaled. *)
let test_span_leaves_out_read_cost () =
  let ticks = ref 0.0 in
  let clock () =
    ticks := !ticks +. 0.25;
    !ticks
  in
  let m = Stdx.Metrics.create () in
  let sp = Stdx.Span.create ~clock ~metrics:m () in
  Stdx.Span.with_ sp "x" (fun () -> ticks := !ticks +. 2.0);
  (match Stdx.Metrics.find (Stdx.Metrics.snapshot m) "span.x_s" with
  | Some (Stdx.Metrics.Histogram h) ->
    check (Alcotest.float 0.0) "the step, without the read" 2.0 h.sum
  | _ -> Alcotest.fail "span.x_s missing");
  check (Alcotest.float 0.0) "four sections, four reads out" 1.0
    (Stdx.Span.sections sp 4 2.0);
  check (Alcotest.float 0.0) "sections shorter than their reads clamp to 0"
    0.0
    (Stdx.Span.sections sp 2 0.125);
  let seen = ref [] in
  let sp =
    Stdx.Span.create ~clock
      ~on_record:(fun name count secs -> seen := (name, count, secs) :: !seen)
      ()
  in
  ignore
    (Sim.Engine.run ~spans:sp ~spec:leader
       ~schedule:
         (Sim.Schedule.static ~adversary:(Sim.Adversary.random_equivocate ())
            ~faulty:[ 0 ] ~rounds:40)
       ~mode:Sim.Engine.Full_horizon ~seed:5 ());
  check Alcotest.int "three engine spans recorded" 3 (List.length !seen);
  List.iter
    (fun (name, count, secs) ->
      check Alcotest.int (name ^ ": sampled rounds") 2 count;
      check (Alcotest.float 0.0) (name ^ ": reads left out") 0.0 secs)
    !seen

let harness_config ~jobs =
  Sim.Harness.Config.(
    default |> with_rounds 150 |> with_seeds [ 1; 2 ] |> with_jobs jobs)

let chaos_config ~jobs =
  Sim.Harness.Chaos.Config.(
    default |> with_campaigns 2 |> with_phases 2 |> with_phase_rounds 60
    |> with_events 1 |> with_seeds [ 1; 2 ] |> with_jobs jobs)

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

let quiet_heartbeat f =
  (* interval long enough that only code paths, not beats, differ *)
  with_heartbeat ~interval_s:1.0e9 (fun hb -> ignore (f hb))

let test_harness_obs_differential () =
  let adversaries = Sim.Adversary.standard_suite () in
  let go ?spans ?heartbeat jobs =
    Sim.Harness.run ?spans ?heartbeat
      ~config:(harness_config ~jobs)
      ~spec:leader ~adversaries ()
  in
  let plain = go 1 in
  ignore
    (quiet_heartbeat (fun hb ->
         check Alcotest.bool "harness aggregate identical with obs on" true
           (plain = go ~spans:true ~heartbeat:hb 1)))

let test_chaos_obs_differential () =
  let adversaries = Sim.Adversary.standard_suite () in
  let go ?spans ?heartbeat jobs =
    Sim.Harness.Chaos.run ?spans ?heartbeat
      ~config:(chaos_config ~jobs)
      ~spec:leader ~adversaries ()
  in
  let plain = go 1 in
  ignore
    (quiet_heartbeat (fun hb ->
         check Alcotest.bool "chaos aggregate identical with obs on" true
           (plain = go ~spans:true ~heartbeat:hb 1)))

let test_hunt_obs_differential () =
  let adversaries = Sim.Adversary.standard_suite () in
  let go ?spans ?heartbeat jobs =
    Sim.Hunt.run ?spans ?heartbeat ~config:(hunt_config ~jobs) ~spec:leader
      ~adversaries ()
  in
  let plain = go 1 in
  let corpus report =
    Sim.Hunt.Corpus.of_report ~spec:leader ~hunt_seed:1 report
    |> List.map Sim.Hunt.Corpus.entry_to_json
  in
  ignore
    (quiet_heartbeat (fun hb ->
         let on = go ~spans:true ~heartbeat:hb parallel_jobs in
         check Alcotest.bool "hunt report identical with obs on" true
           (plain = on);
         check
           (Alcotest.list Alcotest.string)
           "corpus bytes identical with obs on" (corpus plain) (corpus on)))

(* ------------------------------------------------------------------ *)
(* Span/heartbeat output is jobs- and schedule-deterministic            *)
(* ------------------------------------------------------------------ *)

(* Project a terminal heartbeat line onto its deterministic fields:
   everything except wall-clock seconds (t_s/eta_s), the worker block,
   the gc block, and [_s]-suffixed instruments inside the metrics
   snapshot (the same [_s] convention test_telemetry's filters use). *)
let deterministic_view line =
  let j = Stdx.Json.parse line in
  let keep_metrics = function
    | Stdx.Json.Object kvs ->
      Stdx.Json.Object
        (List.map
           (fun (kind, v) ->
             match v with
             | Stdx.Json.Object entries ->
               ( kind,
                 Stdx.Json.Object
                   (List.filter
                      (fun (name, _) ->
                        not (Astring.String.is_suffix ~affix:"_s" name))
                      entries) )
             | v -> (kind, v))
           kvs)
    | v -> v
  in
  match j with
  | Stdx.Json.Object kvs ->
    List.filter_map
      (fun (name, v) ->
        match name with
        | "t_s" | "eta_s" | "workers" | "gc" -> None
        | "metrics" -> Some (name, keep_metrics v)
        | _ -> Some (name, v))
      kvs
  | _ -> Alcotest.fail "heartbeat line must be an object"

let test_heartbeat_jobs_determinism () =
  let adversaries = Sim.Adversary.standard_suite () in
  let at jobs =
    let config = chaos_config ~jobs in
    let lines =
      with_heartbeat ~interval_s:1.0e9 (fun hb ->
          ignore
            (Sim.Harness.Chaos.run ~spans:true ~heartbeat:hb ~config
               ~spec:leader ~adversaries ());
          Stdx.Heartbeat.finish hb)
    in
    check Alcotest.int "quiet interval: terminal line only" 1
      (List.length lines);
    deterministic_view (List.hd lines)
  in
  let base = at 1 in
  check Alcotest.bool "terminal line carries progress" true
    (List.assoc "cells_done" base <> Stdx.Json.Int 0);
  check Alcotest.bool
    (Printf.sprintf "heartbeat identical at jobs=%d" parallel_jobs)
    true
    (base = at parallel_jobs)

(* The terminal heartbeat line is the index-order registry, bit for bit:
   a hunt whose trial costs vary (at REPRO_JOBS trials finish out of
   index order) folds hundreds of awkward badness scores, so a heartbeat
   that merged whole snapshots as cells finished would disagree with
   [--metrics] in the last digits of the [hunt.badness] sum. Every instrument the line
   carries must equal the registry's, at jobs 1 and REPRO_JOBS. *)
let test_heartbeat_terminal_equals_registry () =
  let rec show = function
    | Stdx.Json.Float x -> Printf.sprintf "%.17g" x
    | Stdx.Json.Int i -> string_of_int i
    | Stdx.Json.Array vs -> "[" ^ String.concat "," (List.map show vs) ^ "]"
    | Stdx.Json.Object kvs ->
      "{"
      ^ String.concat "," (List.map (fun (k, v) -> k ^ ":" ^ show v) kvs)
      ^ "}"
    | _ -> "?"
  in
  let json = Alcotest.testable (fun ppf v -> Fmt.string ppf (show v)) ( = ) in
  let config jobs =
    Sim.Hunt.Config.(
      default |> with_trials 400 |> with_seed 3 |> with_run_seed 1
      |> with_phase_rounds 120 |> with_time_bound 9 |> with_jobs jobs)
  in
  let instruments json =
    List.concat_map
      (fun (kind, entries) ->
        match entries with
        | Stdx.Json.Object kvs ->
          List.map (fun (name, v) -> (kind ^ " " ^ name, v)) kvs
        | _ -> [])
      (match json with Stdx.Json.Object kvs -> kvs | _ -> [])
  in
  List.iter
    (fun jobs ->
      let m = Stdx.Metrics.create () in
      let lines =
        with_heartbeat ~interval_s:1.0e9 (fun hb ->
            ignore
              (Sim.Hunt.run ~metrics:m ~heartbeat:hb ~config:(config jobs)
                 ~spec:leader
                 ~adversaries:(Sim.Adversary.standard_suite ())
                 ());
            Stdx.Heartbeat.finish hb)
      in
      let line =
        instruments
          (Stdx.Json.field (Stdx.Json.parse (List.hd lines)) "metrics")
      in
      let registry =
        instruments
          (Stdx.Json.parse (Stdx.Metrics.to_json (Stdx.Metrics.snapshot m)))
      in
      check Alcotest.bool "the line carries hunt.badness" true
        (List.mem_assoc "histograms hunt.badness" line);
      List.iter
        (fun (name, v) ->
          check json
            (Printf.sprintf "jobs=%d: %s as in the registry" jobs name)
            (List.assoc name registry) v)
        line)
    (List.sort_uniq compare [ 1; parallel_jobs ])

(* Spans alone need no cell registry: a spans-only campaign must trace
   the same events, walls aside, as the same campaign with metrics on. *)
let test_spans_only_trace () =
  let zero_walls =
    List.map (fun (ev : Sim.Trace.event) ->
        match ev with
        | Sim.Trace.Cell_end { cell; _ } ->
          Sim.Trace.Cell_end { cell; wall_s = 0.0 }
        | Sim.Trace.Span { name; count; _ } ->
          Sim.Trace.Span { name; count; wall_s = 0.0 }
        | ev -> ev)
  in
  let traced ?metrics () =
    let tr = Sim.Trace.memory () in
    ignore
      (Sim.Harness.Chaos.run ?metrics ~trace:tr ~spans:true
         ~config:(chaos_config ~jobs:1) ~spec:leader
         ~adversaries:(Sim.Adversary.standard_suite ())
         ());
    zero_walls (Sim.Trace.events tr)
  in
  let spans_only = traced () in
  check Alcotest.bool "engine spans traced" true
    (List.exists
       (function
         | Sim.Trace.Span { name = "engine.step"; _ } -> true
         | _ -> false)
       spans_only);
  check Alcotest.bool "same events as with metrics on" true
    (spans_only = traced ~metrics:(Stdx.Metrics.create ()) ())

let test_span_stream_jobs_determinism () =
  (* With spans on, the merged trace gains Span events; after zeroing
     wall payloads and dropping the drain-level pool triple they must be
     identical at any jobs count — and the engine span
     counts must actually be there. *)
  let adversaries = Sim.Adversary.standard_suite () in
  let at jobs =
    let m = Stdx.Metrics.create () in
    let tr = Sim.Trace.memory () in
    let config = harness_config ~jobs in
    ignore
      (Sim.Harness.run ~metrics:m ~trace:tr ~spans:true ~config ~spec:leader
         ~adversaries ());
    ( Test_telemetry.drop_wall (Stdx.Metrics.snapshot m),
      Test_telemetry.normalise_wall (Sim.Trace.events tr) )
  in
  let m1, t1 = at 1 in
  check Alcotest.bool "span events present in the merged stream" true
    (List.exists
       (function
         | Sim.Trace.Span { name = "engine.step"; count; _ } -> count > 0
         | _ -> false)
       t1);
  check Alcotest.bool "span histograms landed in metrics (then dropped)" true
    (not (List.mem_assoc "span.engine.step_s" m1));
  let mn, tn = at parallel_jobs in
  check Alcotest.bool
    (Printf.sprintf "metrics identical at jobs=%d" parallel_jobs)
    true (m1 = mn);
  check Alcotest.bool
    (Printf.sprintf "span stream identical at jobs=%d" parallel_jobs)
    true (t1 = tn)

let suite =
  [
    ( "stdx.span",
      [
        case "records into metrics" test_span_records_into_metrics;
        case "nests and survives raises" test_span_nesting_and_exceptions;
        case "on_record hook and count" test_span_on_record_hook_and_count;
        case "clamps a backward clock" test_span_clamps_backward_clock;
        case "disabled context is inert" test_span_disabled_is_inert;
        case "merge kind/layout error paths" test_merge_error_paths;
      ] );
    ( "stdx.heartbeat",
      [
        case "rejects bad intervals" test_heartbeat_rejects_bad_interval;
        case "terminal line schema" test_heartbeat_terminal_line_schema;
        case "interval gating and finish idempotence"
          test_heartbeat_interval_gating;
        case "eta by cell count when cells are priced as they finish"
          test_heartbeat_eta_by_cells;
        case "floats round-trip exactly (%.17g)"
          test_heartbeat_floats_round_trip;
        case "terminal line bytes" test_heartbeat_golden_line;
      ] );
    ( "sim.obs",
      [
        case "engine spans differential: inert" test_engine_spans_differential;
        case "engine span totals scale to each loop's iterations"
          test_engine_span_scale;
        case "spans leave out the clock's read cost"
          test_span_leaves_out_read_cost;
        case "harness obs differential: inert" test_harness_obs_differential;
        case "chaos obs differential: inert" test_chaos_obs_differential;
        case "hunt obs differential: inert (corpus bytes)"
          test_hunt_obs_differential;
        case "heartbeat terminal line jobs determinism"
          test_heartbeat_jobs_determinism;
        case "span stream jobs determinism" test_span_stream_jobs_determinism;
        case "spans-only trace equals the metrics-on trace"
          test_spans_only_trace;
        case "heartbeat terminal line equals the registry"
          test_heartbeat_terminal_equals_registry;
      ] );
  ]
