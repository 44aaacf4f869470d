(* The cost model: a cell's work is proportional to its horizon times
   n^2 (one all-to-all message round per simulated round). Within a
   single sweep this is constant — LPT with equal costs claims in index
   order — but heterogeneous grids (chaos campaigns with random phase
   durations, hunt trials) get genuine cost-sorted claiming. *)
let cell_cost ~n horizon =
  float_of_int horizon *. float_of_int n *. float_of_int n

type cell = {
  metrics : Stdx.Metrics.t option;
  tracer : Trace.t;
  spans : Stdx.Span.t;
}

(* Per-worker busy/claim/idle seconds land in the caller's registry as
   histograms — the load-imbalance, claiming-overhead and straggler
   signals. Like the cell wall-clock samples they are
   scheduling-dependent (sample count = actual worker count), which is
   why they ride the Pool stats side channel and not the deterministic
   per-cell sinks. *)
let observe_workers m (s : Stdx.Pool.stats) =
  let observe name v =
    Stdx.Metrics.observe ~buckets:Stdx.Metrics.time_buckets m name v
  in
  Array.iteri
    (fun w busy ->
      let claim = s.Stdx.Pool.worker_claim_s.(w) in
      observe "pool.worker_busy_s" busy;
      observe "pool.worker_claim_s" claim;
      observe "pool.worker_idle_s"
        (Float.max 0.0 (s.Stdx.Pool.wall_s -. busy -. claim)))
    s.Stdx.Pool.worker_busy_s

(* Pool-level spans: one [pool.busy] / [pool.claim] / [pool.idle] Span
   event per drain, emitted after the deterministic cell streams (count
   = actual worker count, so the determinism tests drop these wholesale
   along with the wall fields). *)
let emit_pool_spans tr (s : Stdx.Pool.stats) =
  let jobs = s.Stdx.Pool.actual_jobs in
  let busy = Array.fold_left ( +. ) 0.0 s.Stdx.Pool.worker_busy_s in
  let claim = Array.fold_left ( +. ) 0.0 s.Stdx.Pool.worker_claim_s in
  let idle =
    Float.max 0.0 ((s.Stdx.Pool.wall_s *. float_of_int jobs) -. busy -. claim)
  in
  List.iter
    (fun (name, wall_s) ->
      Trace.emit tr (Trace.Span { name; count = jobs; wall_s }))
    [ ("pool.busy", busy); ("pool.claim", claim); ("pool.idle", idle) ]

let exec ?metrics ?trace ?(spans = false) ?heartbeat ~jobs ~prefix ~n ~horizon
    ~label cells run_cell =
  let costs = Array.init cells (fun i -> cell_cost ~n (horizon i)) in
  let cost i = costs.(i) in
  Option.iter
    (fun hb ->
      Stdx.Heartbeat.set_totals hb ~cells
        ~cost:(Array.fold_left ( +. ) 0.0 costs))
    heartbeat;
  let seams = match trace with Some tr -> Trace.seams_on tr | None -> false in
  (* Spans without [metrics] or a heartbeat need no cell registry: they
     reach the trace through [on_record]. *)
  let want_cell_metrics = metrics <> None || heartbeat <> None in
  (* The cell wall feeds [<prefix>.cell_wall_s] and [Cell_end] only. *)
  let timed = metrics <> None || seams in
  let pool_stats = ref None in
  let stats =
    if metrics = None && not spans then None
    else
      Some
        (fun s ->
          pool_stats := Some s;
          Option.iter (fun m -> observe_workers m s) metrics)
  in
  let on_task =
    Option.map
      (fun hb ~worker ~index:_ ~wall_s ->
        Stdx.Heartbeat.task_done hb ~worker ~busy_s:wall_s)
      heartbeat
  in
  let results =
    Stdx.Pool.exec ~jobs ~cost ?stats ?on_task cells (fun i ->
        let cell_m =
          if want_cell_metrics then Some (Stdx.Metrics.create ()) else None
        in
        let tracer = if seams then Trace.memory () else Trace.null in
        let cell_sp =
          if not spans then Stdx.Span.disabled
          else
            let on_record =
              if not seams then None
              else
                Some
                  (fun name count wall_s ->
                    Trace.emit tracer (Trace.Span { name; count; wall_s }))
            in
            Stdx.Span.create ?metrics:cell_m ?on_record ()
        in
        let t0 = if timed then Stdx.Metrics.wall_clock () else 0.0 in
        let v, rounds =
          run_cell { metrics = cell_m; tracer; spans = cell_sp } i
        in
        let wall =
          if timed then Float.max 0.0 (Stdx.Metrics.wall_clock () -. t0)
          else 0.0
        in
        let snap = Option.map Stdx.Metrics.snapshot cell_m in
        Option.iter
          (fun hb ->
            Stdx.Heartbeat.cell_done ?snapshot:snap ~rounds ~cost:(cost i) hb)
          heartbeat;
        (* Fold the cell into the caller's registry now and keep only
           what the index-order pass below needs: the order-sensitive
           histogram sums and gauges, not the whole snapshot. *)
        let rest =
          Option.map
            (fun snap ->
              Option.iter (fun m -> Stdx.Metrics.merge_counts m snap) metrics;
              Stdx.Metrics.ordered snap)
            snap
        in
        (v, rest, Trace.events tracer, wall))
  in
  (* Deterministic merge: pool workers never share a sink, and what
     depends on merge order — histogram sums, gauges, trace streams — is
     applied here in cell-index order, so the merged metrics and the
     replayed trace are identical at any [jobs]. *)
  let wall_metric = prefix ^ ".cell_wall_s" in
  let cells_metric = prefix ^ ".cells" in
  Array.iteri
    (fun i (_, rest, events, wall) ->
      Option.iter
        (fun rest ->
          Option.iter (fun m -> Stdx.Metrics.merge_ordered m rest) metrics;
          Option.iter (fun hb -> Stdx.Heartbeat.settle hb rest) heartbeat)
        rest;
      Option.iter
        (fun m ->
          Stdx.Metrics.observe ~buckets:Stdx.Metrics.time_buckets m wall_metric
            wall;
          Stdx.Metrics.incr m cells_metric)
        metrics;
      match trace with
      | Some tr when seams ->
        Trace.emit tr (Trace.Cell_start { cell = i; label = label i });
        List.iter (Trace.emit tr) events;
        Trace.emit tr (Trace.Cell_end { cell = i; wall_s = wall })
      | _ -> ())
    results;
  (match (trace, !pool_stats) with
  | Some tr, Some s when spans && seams -> emit_pool_spans tr s
  | _ -> ());
  Array.map (fun (v, _, _, _) -> v) results
