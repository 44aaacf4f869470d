(* Sim.Campaign.exec on its own: a synthetic per-cell function (no
   engine) whose results, trace events and metrics are known in
   advance, run at jobs {1, REPRO_JOBS} (REPRO_JOBS as in
   test_sim.ml). *)

let check = Alcotest.check
let case name f = Alcotest.test_case name `Quick f

let cells = 11
let n = 3
let horizon i = 10 + (i * 7 mod 13)
let label i = Printf.sprintf "cell %d" i

(* Every jobs count the group exercises, labelled. *)
let configs =
  List.map
    (fun jobs -> (Printf.sprintf "jobs=%d" jobs, jobs))
    (List.sort_uniq compare [ 1; Test_sim.parallel_jobs ])

(* Cell [i] emits one seam event and one span, bumps a counter by [i],
   returns [i * i] and reports [horizon i] simulated rounds. *)
let synthetic (cell : Sim.Campaign.cell) i =
  if Sim.Trace.seams_on cell.Sim.Campaign.tracer then
    Sim.Trace.emit cell.Sim.Campaign.tracer
      (Sim.Trace.Detector_reset { round = i; phase = 0 });
  Stdx.Span.record cell.Sim.Campaign.spans "synthetic" 0.0;
  Option.iter
    (fun m -> Stdx.Metrics.incr ~by:i m "synthetic.sum")
    cell.Sim.Campaign.metrics;
  (i * i, horizon i)

let expected_stream =
  List.concat
    (List.init cells (fun i ->
         [
           Sim.Trace.Cell_start { cell = i; label = label i };
           Sim.Trace.Detector_reset { round = i; phase = 0 };
           Sim.Trace.Span { name = "synthetic"; count = 1; wall_s = 0.0 };
           Sim.Trace.Cell_end { cell = i; wall_s = 0.0 };
         ]))

let sum f = List.fold_left ( + ) 0 (List.init cells f)

let test_all_sinks () =
  List.iter
    (fun (name, jobs) ->
      let m = Stdx.Metrics.create () in
      let tr = Sim.Trace.memory () in
      let results = ref [||] in
      let lines =
        Test_obs.with_heartbeat ~interval_s:1.0e9 (fun hb ->
            results :=
              Sim.Campaign.exec ~metrics:m ~trace:tr ~spans:true ~heartbeat:hb
                ~jobs ~prefix:"synthetic" ~n
                ~horizon:(Sim.Campaign.Known horizon) ~label cells synthetic;
            Stdx.Heartbeat.finish hb)
      in
      check (Alcotest.array Alcotest.int) (name ^ ": results in index order")
        (Array.init cells (fun i -> i * i))
        !results;
      let events = Sim.Trace.events tr in
      check Alcotest.bool (name ^ ": merged trace in index order") true
        (Test_telemetry.normalise_wall events = expected_stream);
      let rec after_last_cell_end acc = function
        | [] -> acc
        | Sim.Trace.Cell_end _ :: rest -> after_last_cell_end rest rest
        | _ :: rest -> after_last_cell_end acc rest
      in
      check
        (Alcotest.list Alcotest.string)
        (name ^ ": one pool triple after the last Cell_end")
        [ "pool.busy"; "pool.claim"; "pool.idle" ]
        (List.map
           (function Sim.Trace.Span { name; _ } -> name | _ -> "?")
           (after_last_cell_end events events));
      let snap = Stdx.Metrics.snapshot m in
      check Alcotest.bool (name ^ ": <prefix>.cells = N") true
        (Stdx.Metrics.find snap "synthetic.cells"
        = Some (Stdx.Metrics.Counter cells));
      (match Stdx.Metrics.find snap "synthetic.cell_wall_s" with
      | Some (Stdx.Metrics.Histogram h) ->
        check Alcotest.int (name ^ ": one wall sample per cell") cells h.count
      | _ -> Alcotest.fail "synthetic.cell_wall_s missing");
      check Alcotest.bool (name ^ ": cell registries merged") true
        (Stdx.Metrics.find snap "synthetic.sum"
        = Some (Stdx.Metrics.Counter (sum Fun.id)));
      let j = Stdx.Json.parse (List.hd lines) in
      let field f conv = conv f (Stdx.Json.field j f) in
      check (Alcotest.float 0.0) (name ^ ": heartbeat cost total")
        (float_of_int (sum (fun i -> horizon i * n * n)))
        (field "cost_total" Stdx.Json.to_float);
      check (Alcotest.float 0.0) (name ^ ": heartbeat cost done")
        (float_of_int (sum (fun i -> horizon i * n * n)))
        (field "cost_done" Stdx.Json.to_float);
      check Alcotest.int (name ^ ": heartbeat cells") cells
        (field "cells_done" Stdx.Json.to_int);
      check Alcotest.int (name ^ ": heartbeat rounds") (sum horizon)
        (field "rounds" Stdx.Json.to_int))
    configs

let test_no_sinks_inert () =
  List.iter
    (fun (name, jobs) ->
      let inert =
        Sim.Campaign.exec ~jobs ~prefix:"synthetic" ~n
          ~horizon:(Sim.Campaign.Known horizon) ~label cells (fun cell i ->
            ( cell.Sim.Campaign.metrics = None
              && cell.Sim.Campaign.tracer == Sim.Trace.null
              && cell.Sim.Campaign.spans == Stdx.Span.disabled,
              i ))
      in
      check Alcotest.bool (name ^ ": no private sinks without caller sinks")
        true
        (Array.for_all Fun.id inert))
    configs

(* Cells are claimed longest-horizon first: at jobs = 1 the run order
   is the grid sorted by decreasing horizon, ties by lower index. *)
let test_longest_cell_first () =
  let ran = ref [] in
  ignore
    (Sim.Campaign.exec ~jobs:1 ~prefix:"synthetic" ~n
       ~horizon:(Sim.Campaign.Known horizon) ~label cells (fun _ i ->
         ran := i :: !ran;
         (i, horizon i)));
  let ran = List.rev !ran in
  let longest =
    List.fold_left
      (fun best i -> if horizon i > horizon best then i else best)
      0
      (List.init cells Fun.id)
  in
  check Alcotest.int "the longest-horizon cell runs first" longest
    (List.hd ran);
  check
    (Alcotest.list Alcotest.int)
    "run order: decreasing horizon, ties by index"
    (List.stable_sort
       (fun a b -> Int.compare (horizon b) (horizon a))
       (List.init cells Fun.id))
    ran;
  let ran = ref [] in
  ignore
    (Sim.Campaign.exec ~jobs:1 ~prefix:"synthetic" ~n
       ~horizon:(Sim.Campaign.Of_result Fun.id) ~label cells (fun _ i ->
         ran := i :: !ran;
         (horizon i, horizon i)));
  check
    (Alcotest.list Alcotest.int)
    "horizons read off the results: index order" (List.init cells Fun.id)
    (List.rev !ran)

(* Cells that finish in any order are merged as whole snapshots in
   cell-index order would be. The horizons make the claim order
   (longest first) differ from the index order, and the cells observe
   floats whose sum depends on the order they are added in (1e16
   swallows a 1.0 that -1e16 would have left standing), so a fold in
   completion order is seen: at jobs = 1 the test checks that such a
   fold reads differently. *)
let test_fold_equals_index_merge () =
  let horizon i = [| 20; 50; 10; 40; 30; 60 |].(i) in
  let value i = [| 1e16; 1.0; -1e16; 1.0; 3.0; 0.5 |].(i) in
  let cells = 6 in
  let record m i =
    Stdx.Metrics.incr ~by:(i + 1) m "fold.count";
    Stdx.Metrics.observe ~buckets:[| 1.0; 1e17 |] m "fold.x" (value i)
  in
  let merged order =
    let m = Stdx.Metrics.create () in
    List.iter
      (fun i ->
        let cell = Stdx.Metrics.create () in
        record cell i;
        Stdx.Metrics.merge m (Stdx.Metrics.snapshot cell))
      order;
    Stdx.Metrics.incr ~by:cells m "fold.cells";
    Test_telemetry.drop_wall (Stdx.Metrics.snapshot m)
  in
  let expected = merged (List.init cells Fun.id) in
  List.iter
    (fun (name, jobs) ->
      let m = Stdx.Metrics.create () in
      let ran = ref [] in
      ignore
        (Sim.Campaign.exec ~metrics:m ~jobs ~prefix:"fold" ~n
           ~horizon:(Sim.Campaign.Known horizon) ~label cells (fun cell i ->
             if jobs = 1 then ran := i :: !ran;
             Option.iter (fun m -> record m i) cell.Sim.Campaign.metrics;
             ((), horizon i)));
      check Alcotest.bool (name ^ ": the index-order merge, bit for bit") true
        (Test_telemetry.drop_wall (Stdx.Metrics.snapshot m) = expected);
      if jobs = 1 then
        check Alcotest.bool "a completion-order fold would read differently"
          false
          (merged (List.rev !ran) = expected))
    configs

(* Costs that rise with the index make longest-first claims run the
   grid last cell first, so at jobs = 1 every cell finishes before cell
   0 and waits in the merge window until the cells below it are merged.
   The trace, registry and heartbeat terminal line must equal those of
   the same cells claimed in index order ([Of_result], same costs),
   which finish in index order at jobs = 1. The cells also observe
   floats whose sum depends on the order they are added in, as in the
   fold test above. *)
let test_window_reverse_finish () =
  let cells = 8 in
  let rising i = 10 + i in
  let value i = [| 1e16; 1.0; -1e16; 1.0; 3.0; 0.5; -2.0; 7.0 |].(i) in
  let run ~jobs horizon =
    let ran = ref [] in
    let m = Stdx.Metrics.create () in
    let tr = Sim.Trace.memory () in
    let lines =
      Test_obs.with_heartbeat ~interval_s:1.0e9 (fun hb ->
          ignore
            (Sim.Campaign.exec ~metrics:m ~trace:tr ~spans:true ~heartbeat:hb
               ~jobs ~prefix:"window" ~n ~horizon ~label cells (fun cell i ->
                 if jobs = 1 then ran := i :: !ran;
                 ignore (synthetic cell i);
                 Option.iter
                   (fun m ->
                     Stdx.Metrics.observe ~buckets:[| 1.0; 1e17 |] m "window.x"
                       (value i))
                   cell.Sim.Campaign.metrics;
                 (rising i, rising i)));
          Stdx.Heartbeat.finish hb)
    in
    ( List.rev !ran,
      Test_telemetry.normalise_wall (Sim.Trace.events tr),
      Test_telemetry.drop_wall (Stdx.Metrics.snapshot m),
      Test_obs.deterministic_view (List.hd lines) )
  in
  List.iter
    (fun (name, jobs) ->
      let ran, trace, registry, final = run ~jobs (Sim.Campaign.Known rising) in
      let ran', trace', registry', final' =
        run ~jobs (Sim.Campaign.Of_result Fun.id)
      in
      if jobs = 1 then begin
        check
          (Alcotest.list Alcotest.int)
          "longest first: the cells finish in reverse"
          (List.init cells (fun i -> cells - 1 - i))
          ran;
        check
          (Alcotest.list Alcotest.int)
          "index-order claims finish in order" (List.init cells Fun.id) ran'
      end;
      check
        (Alcotest.list Alcotest.int)
        (name ^ ": the trace's cells in index order")
        (List.init cells Fun.id)
        (List.filter_map
           (function Sim.Trace.Cell_start { cell; _ } -> Some cell | _ -> None)
           trace);
      check Alcotest.bool (name ^ ": trace as in index order") true
        (trace = trace');
      check Alcotest.bool (name ^ ": registry as in index order") true
        (registry = registry');
      check Alcotest.bool (name ^ ": heartbeat terminal line as in index order")
        true (final = final'))
    configs

(* The per-worker histograms, and a histogram of a registry. *)
let pool_histograms =
  [ "pool.worker_busy_s"; "pool.worker_claim_s"; "pool.worker_idle_s" ]

let hist snap name =
  match Stdx.Metrics.find snap name with
  | Some (Stdx.Metrics.Histogram h) -> h
  | _ -> Alcotest.failf "%s missing" name

(* The rows a campaign records outside its cells: the cell count, the
   cell walls and the per-worker histograms. *)
let campaign_row ~prefix name =
  name = prefix ^ ".cells"
  || name = prefix ^ ".cell_wall_s"
  || List.mem name pool_histograms

let cell_rows ~prefix snap =
  List.filter (fun (name, _) -> not (campaign_row ~prefix name)) snap

(* What [synthetic] records into a registry of its own, as cell [i]
   with live spans. *)
let synthetic_snapshot i =
  let m = Stdx.Metrics.create () in
  ignore
    (synthetic
       {
         Sim.Campaign.metrics = Some m;
         tracer = Sim.Trace.null;
         spans = Stdx.Span.create ~metrics:m ();
       }
       i);
  Stdx.Metrics.snapshot m

(* A failing cell: the exception of the lowest failing index
   propagates, whichever failed first. Costs rise with the index, so at
   jobs = 1 cell 7 fails before cell 4 runs. What was written before
   the re-raise is pinned: the trace holds the cells below the failing
   index, each in full, and no pool spans; the registry holds those
   cells only (their registries, cell count and wall samples) and the
   per-worker histograms, recorded once the pool has drained. *)
let test_failure_prefix () =
  let cells = 10 in
  let rising i = 10 + i in
  let failing i = i = 4 || i = 7 in
  List.iter
    (fun (name, jobs) ->
      let m = Stdx.Metrics.create () in
      let tr = Sim.Trace.memory () in
      (match
         Sim.Campaign.exec ~metrics:m ~trace:tr ~spans:true ~jobs
           ~prefix:"synthetic" ~n ~horizon:(Sim.Campaign.Known rising) ~label
           cells (fun cell i ->
             let v = synthetic cell i in
             if failing i then failwith (Printf.sprintf "cell %d" i);
             v)
       with
      | _ -> Alcotest.fail "a failing cell must raise"
      | exception Failure msg ->
        check Alcotest.string (name ^ ": the lowest failing index propagates")
          "cell 4" msg);
      check Alcotest.bool (name ^ ": the trace holds cells 0-3 in full") true
        (Test_telemetry.normalise_wall (Sim.Trace.events tr)
        = List.filteri (fun k _ -> k < 4 * 4) expected_stream);
      let snap = Stdx.Metrics.snapshot m in
      let merged = Stdx.Metrics.create () in
      List.iter
        (fun i -> Stdx.Metrics.merge merged (synthetic_snapshot i))
        [ 0; 1; 2; 3 ];
      check Alcotest.bool (name ^ ": the registries of cells 0-3 only") true
        (cell_rows ~prefix:"synthetic" snap = Stdx.Metrics.snapshot merged);
      check Alcotest.bool (name ^ ": merged cells only in <prefix>.cells") true
        (Stdx.Metrics.find snap "synthetic.cells"
        = Some (Stdx.Metrics.Counter 4));
      check Alcotest.int (name ^ ": wall samples of merged cells") 4
        (hist snap "synthetic.cell_wall_s").Stdx.Metrics.count;
      List.iter
        (fun h ->
          check Alcotest.int
            (Printf.sprintf "%s: %s, one sample per worker" name h)
            (min jobs cells) (hist snap h).Stdx.Metrics.count)
        pool_histograms)
    configs

(* A merge that raises — here, every trace write on a closed channel —
   is re-raised once the pool has drained, so every cell still runs; a
   failing cell wins over it, as a failure at the lowest index would. *)
let test_merge_failure_after_drain () =
  let oc = open_out_bin Filename.null in
  close_out oc;
  let ran = Atomic.make 0 in
  let exec ~jobs ~fail_last =
    Atomic.set ran 0;
    Sim.Campaign.exec ~trace:(Sim.Trace.jsonl oc) ~jobs ~prefix:"synthetic" ~n
      ~horizon:(Sim.Campaign.Known horizon) ~label cells (fun cell i ->
        Atomic.incr ran;
        if fail_last && i = cells - 1 then failwith "last cell";
        synthetic cell i)
  in
  List.iter
    (fun (name, jobs) ->
      (match exec ~jobs ~fail_last:false with
      | _ -> Alcotest.fail "an unwritable trace must raise"
      | exception Sys_error _ ->
        check Alcotest.int (name ^ ": every cell ran before the re-raise")
          cells (Atomic.get ran));
      match exec ~jobs ~fail_last:true with
      | _ -> Alcotest.fail "a failing cell must raise"
      | exception Failure msg ->
        check Alcotest.string (name ^ ": the failing cell wins") "last cell"
          msg)
    configs

(* The per-worker histograms and the pool span triple: one sample,
   and a count, per worker, i.e. [min jobs cells], on a grid wider and
   on one narrower than the pool. *)
let test_one_sample_per_worker () =
  List.iter
    (fun (name, jobs) ->
      List.iter
        (fun cells ->
          let m = Stdx.Metrics.create () in
          let tr = Sim.Trace.memory () in
          ignore
            (Sim.Campaign.exec ~metrics:m ~trace:tr ~spans:true ~jobs
               ~prefix:"synthetic" ~n ~horizon:(Sim.Campaign.Known horizon)
               ~label cells synthetic);
          let workers = min jobs cells in
          let what = Printf.sprintf "%s, %d cells" name cells in
          check
            (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int))
            (what ^ ": pool triple counts")
            [
              ("pool.busy", workers);
              ("pool.claim", workers);
              ("pool.idle", workers);
            ]
            (List.filter_map
               (function
                 | Sim.Trace.Span { name; count; _ }
                   when String.starts_with ~prefix:"pool." name ->
                   Some (name, count)
                 | _ -> None)
               (Sim.Trace.events tr));
          let snap = Stdx.Metrics.snapshot m in
          List.iter
            (fun h ->
              check Alcotest.int
                (Printf.sprintf "%s: %s samples" what h)
                workers (hist snap h).Stdx.Metrics.count)
            pool_histograms)
        [ cells; 2 ])
    configs

(* Per worker, busy (task walls) + claim (gaps between its tasks) +
   idle (the rest) is the drain's wall: over all workers the three sums
   come to [workers] walls, and the drain lies inside the time measured
   around the campaign. Cells sleep, so a cell's task is long next to
   the campaign's own bookkeeping, and a task wall holds its cell wall. *)
let test_busy_claim_idle_is_the_wall () =
  List.iter
    (fun (name, jobs) ->
      let m = Stdx.Metrics.create () in
      let t0 = Stdx.Metrics.wall_clock () in
      ignore
        (Sim.Campaign.exec ~metrics:m ~jobs ~prefix:"synthetic" ~n
           ~horizon:(Sim.Campaign.Known horizon) ~label cells (fun cell i ->
             Unix.sleepf 0.002;
             synthetic cell i));
      let outer = Stdx.Metrics.wall_clock () -. t0 in
      let snap = Stdx.Metrics.snapshot m in
      let workers = float_of_int (min jobs cells) in
      let sum h = (hist snap h).Stdx.Metrics.sum in
      let per_worker =
        List.fold_left (fun a h -> a +. sum h) 0.0 pool_histograms /. workers
      in
      if not (per_worker <= outer +. 1e-6 && per_worker >= 0.5 *. outer) then
        Alcotest.failf
          "%s: busy + claim + idle per worker %.6f s, campaign wall %.6f s"
          name per_worker outer;
      check Alcotest.bool (name ^ ": task walls hold the cell walls") true
        (sum "pool.worker_busy_s" >= sum "synthetic.cell_wall_s");
      check Alcotest.bool (name ^ ": sleeping cells make workers busy") true
        (sum "pool.worker_busy_s" >= 0.002 *. float_of_int cells))
    configs

(* At a zero interval every finished cell beats once; hunt hits, here
   two per cell, only count, so the stream is one line per cell plus the
   terminal line, which tallies every hit. *)
let test_hits_do_not_beat () =
  List.iter
    (fun (name, jobs) ->
      let lines =
        Test_obs.with_heartbeat ~interval_s:0.0 (fun hb ->
            ignore
              (Sim.Campaign.exec ~heartbeat:hb ~jobs ~prefix:"synthetic" ~n
                 ~horizon:(Sim.Campaign.Known horizon) ~label cells
                 (fun cell i ->
                   Stdx.Heartbeat.hit hb "failed";
                   Stdx.Heartbeat.hit hb "failed";
                   synthetic cell i));
            Stdx.Heartbeat.finish hb)
      in
      check Alcotest.int (name ^ ": one line per cell and the final one")
        (cells + 1) (List.length lines);
      let final = Stdx.Json.parse (List.nth lines cells) in
      check Alcotest.int (name ^ ": every hit tallied") (2 * cells)
        (Stdx.Json.to_int "failed"
           (Stdx.Json.field (Stdx.Json.field final "hits") "failed")))
    configs

(* Two cells that record "x" with different kinds: the clash is met
   when cell 1 is merged after cell 0, however the cells finish. Cell 0
   sleeps, so at jobs = 2 cell 1 finishes first and waits. The same
   error is re-raised at any jobs count, and the trace and the registry
   hold cell 0 and nothing of cell 1. *)
let test_kind_clash_deterministic () =
  List.iter
    (fun jobs ->
      let name = Printf.sprintf "jobs=%d" jobs in
      let m = Stdx.Metrics.create () in
      let tr = Sim.Trace.memory () in
      (match
         Sim.Campaign.exec ~metrics:m ~trace:tr ~spans:true ~jobs
           ~prefix:"clash" ~n ~horizon:(Sim.Campaign.Of_result Fun.id) ~label 2
           (fun cell i ->
             if i = 0 then Unix.sleepf 0.05;
             Option.iter
               (fun m ->
                 if i = 0 then Stdx.Metrics.incr m "x"
                 else Stdx.Metrics.observe m "x" 1.0)
               cell.Sim.Campaign.metrics;
             ignore (synthetic cell i);
             (1, 1))
       with
      | _ -> Alcotest.fail "a kind clash must raise"
      | exception Invalid_argument msg ->
        check Alcotest.string (name ^ ": the same error")
          "Metrics: \"x\" is not a histogram" msg);
      check Alcotest.bool (name ^ ": the trace holds cell 0's stream") true
        (Test_telemetry.normalise_wall (Sim.Trace.events tr)
        = List.filteri (fun k _ -> k < 4) expected_stream);
      let cell0 = Stdx.Metrics.create () in
      Stdx.Metrics.incr cell0 "x";
      Stdx.Metrics.merge cell0 (synthetic_snapshot 0);
      let snap = Stdx.Metrics.snapshot m in
      check Alcotest.bool (name ^ ": the registry holds cell 0 only") true
        (cell_rows ~prefix:"clash" snap = Stdx.Metrics.snapshot cell0
        && Stdx.Metrics.find snap "clash.cells"
           = Some (Stdx.Metrics.Counter 1)))
    (List.sort_uniq compare [ 1; 2; Test_sim.parallel_jobs ])

(* The heartbeat's terminal line carries the merge of the cell
   registries: the caller's registry less the rows the campaign records
   outside the cells. The cells observe order-sensitive floats, and
   rising costs make them finish out of index order. *)
let test_heartbeat_is_the_cell_rows () =
  let cells = 8 in
  let rising i = 10 + i in
  let value i = [| 1e16; 1.0; -1e16; 1.0; 3.0; 0.5; -2.0; 7.0 |].(i) in
  List.iter
    (fun (name, jobs) ->
      let m = Stdx.Metrics.create () in
      let lines =
        Test_obs.with_heartbeat ~interval_s:0.0 (fun hb ->
            ignore
              (Sim.Campaign.exec ~metrics:m ~spans:true ~heartbeat:hb ~jobs
                 ~prefix:"window" ~n ~horizon:(Sim.Campaign.Known rising)
                 ~label cells (fun cell i ->
                   ignore (synthetic cell i);
                   Option.iter
                     (fun m ->
                       Stdx.Metrics.observe ~buckets:[| 1.0; 1e17 |] m
                         "window.x" (value i))
                     cell.Sim.Campaign.metrics;
                   (rising i, rising i)));
            Stdx.Heartbeat.finish hb)
      in
      let final = Stdx.Json.parse (List.nth lines (List.length lines - 1)) in
      check Alcotest.bool (name ^ ": terminal metrics = the cell rows") true
        (Stdx.Json.field final "metrics"
        = Stdx.Json.parse
            (Stdx.Metrics.to_json
               (cell_rows ~prefix:"window" (Stdx.Metrics.snapshot m)))))
    configs

let suite =
  [
    ( "sim.campaign",
      [
        case "all sinks: order, merge, heartbeat, pool spans" test_all_sinks;
        case "no sinks: inert cells" test_no_sinks_inert;
        case "longest cell claimed first" test_longest_cell_first;
        case "folding at completion equals the index-order merge"
          test_fold_equals_index_merge;
        case "cells finishing in reverse merge as in index order"
          test_window_reverse_finish;
        case "a failing cell: lowest index wins, trace holds the cells below"
          test_failure_prefix;
        case "a merge that raises is re-raised after the drain"
          test_merge_failure_after_drain;
        case "a kind clash between cells raises the same at any jobs"
          test_kind_clash_deterministic;
        case
          "the heartbeat's registry is the caller's less the campaign's own \
           rows"
          test_heartbeat_is_the_cell_rows;
        case "one pool sample and span count per worker"
          test_one_sample_per_worker;
        case "per worker, busy + claim + idle is the drain's wall"
          test_busy_claim_idle_is_the_wall;
        case "hunt hits alone emit no heartbeat line" test_hits_do_not_beat;
      ] );
  ]
