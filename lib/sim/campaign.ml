(* The cost model: a cell's work is proportional to its horizon times
   n^2 (one all-to-all message round per simulated round). Within a
   single sweep this is constant — LPT with equal costs claims in index
   order — but chaos campaigns with random phase durations get genuine
   cost-sorted claiming. *)
let cell_cost ~n horizon =
  float_of_int horizon *. float_of_int n *. float_of_int n

type 'a horizon = Known of (int -> int) | Of_result of ('a -> int)

type cell = {
  metrics : Stdx.Metrics.t option;
  tracer : Trace.t;
  spans : Stdx.Span.t;
}

(* Per-worker busy/claim/idle seconds land in the caller's registry as
   histograms — the load-imbalance, claiming-overhead and straggler
   signals. Like the cell wall-clock samples they are
   scheduling-dependent (sample count = worker count), which is why
   they are recorded after the drain and not through the deterministic
   per-cell sinks. *)
let observe_workers m ~busy ~claim ~idle =
  let observe name v =
    Stdx.Metrics.observe ~buckets:Stdx.Metrics.time_buckets m name v
  in
  Array.iteri
    (fun w busy ->
      observe "pool.worker_busy_s" busy;
      observe "pool.worker_claim_s" claim.(w);
      observe "pool.worker_idle_s" idle.(w))
    busy

(* Pool-level spans: one [pool.busy] / [pool.claim] / [pool.idle] Span
   event per drain, emitted after the deterministic cell streams (count
   = worker count, so the determinism tests drop these wholesale along
   with the wall fields). *)
let emit_pool_spans tr ~busy ~claim ~idle =
  let count = Array.length busy in
  let total = Array.fold_left ( +. ) 0.0 in
  List.iter
    (fun (name, a) ->
      Trace.emit tr (Trace.Span { name; count; wall_s = total a }))
    [ ("pool.busy", busy); ("pool.claim", claim); ("pool.idle", idle) ]

(* The domain's idle cell registry: cleared, a registry reads as a
   fresh one, so a worker reuses one for all its cells instead of
   building every instrument anew per cell. A merged registry goes back
   to the slot of the domain that merged it, so a cell merged as soon
   as it finishes hands its registry to its worker's next cell. A cell
   that fails drops its registry, a cell that waits in the merge window
   keeps its own, and a cell that finds the slot empty (its domain's
   registry is waiting, or it runs inside a cell of another campaign)
   takes a new one. *)
let idle_registry : Stdx.Metrics.t option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let take_registry () =
  match Domain.DLS.get idle_registry with
  | Some m ->
    Domain.DLS.set idle_registry None;
    m
  | None -> Stdx.Metrics.create ()

let give_back m =
  Stdx.Metrics.clear m;
  Domain.DLS.set idle_registry (Some m)

let exec ?metrics ?trace ?(spans = false) ?heartbeat ~jobs ~prefix ~n ~horizon
    ~label cells run_cell =
  (* Known horizons price every cell up front for LPT claims; a cell
     whose horizon comes with its result is claimed in index order and
     priced for the heartbeat when it finishes. *)
  let costs, cost =
    match horizon with
    | Known h ->
      let costs = Array.init cells (fun i -> cell_cost ~n (h i)) in
      (costs, Some (Array.get costs))
    | Of_result _ -> ([||], None)
  in
  Option.iter
    (fun hb ->
      Stdx.Heartbeat.set_totals hb ~cells
        ~cost:(Array.fold_left ( +. ) 0.0 costs))
    heartbeat;
  let seams = match trace with Some tr -> Trace.seams_on tr | None -> false in
  (* Spans without [metrics] or a heartbeat need no cell registry: they
     reach the trace through [on_record]. *)
  let want_cell_metrics = metrics <> None || heartbeat <> None in
  (* Without a sink there is nothing to merge: the cells skip the window. *)
  let merging = want_cell_metrics || seams in
  (* The one clock of a campaign. The cell wall (the task's start to
     [run_cell]'s return) feeds [<prefix>.cell_wall_s] and [Cell_end];
     the task wall (start to end, merge included) feeds the per-worker
     histograms, the pool span triple and the heartbeat. Per worker,
     [busy] sums the task walls, [claim] the gaps between one task's end
     and the next one's start, and idle is the rest of the drain's
     wall. Each array slot is written by its worker's domain only and
     read after the drain. *)
  let cell_clock = metrics <> None || seams in
  let task_clock = metrics <> None || (spans && seams) || heartbeat <> None in
  let workers = Stdx.Pool.workers ~jobs cells in
  let busy = Array.make workers 0.0 in
  let claim = Array.make workers 0.0 in
  let last_end = Array.make workers Float.nan in
  let elapsed t0 t1 = Float.max 0.0 (t1 -. t0) in
  (* Deterministic merge: pool workers never share a sink, and every
     cell's registry, wall sample and trace stream is merged in
     cell-index order, so the merged metrics (whose float sums depend
     on that order) and the replayed trace are identical at any [jobs].
     A finished cell waits in [window] until every lower-indexed cell
     has been merged; the worker that completes the run of ready cells
     merges them. A failed cell is never merged, so the cells above it
     stay in the window. *)
  let wall_metric = prefix ^ ".cell_wall_s" in
  let cells_metric = prefix ^ ".cells" in
  let merge i (cell_m, events, wall) =
    Option.iter
      (fun cell_m ->
        Option.iter (fun m -> Stdx.Metrics.add m cell_m) metrics;
        Option.iter (fun hb -> Stdx.Heartbeat.add hb cell_m) heartbeat;
        give_back cell_m)
      cell_m;
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
    | _ -> ()
  in
  let window = Hashtbl.create 16 in
  let window_lock = Mutex.create () in
  let next = ref 0 in
  (* A merge that raises (a kind clash, an unwritable trace) stops the
     merging; it is re-raised once the pool has drained, unless a cell
     failed. *)
  let merge_failure = ref None in
  let rec merge_ready () =
    match Hashtbl.find_opt window !next with
    | None -> ()
    | Some finished ->
      Hashtbl.remove window !next;
      merge !next finished;
      incr next;
      merge_ready ()
  in
  let finish i finished =
    Mutex.protect window_lock (fun () ->
        if Option.is_none !merge_failure then
          try
            (* The cell every lower one has been merged before skips the
               window: at one job, every cell. *)
            if i = !next then begin
              merge i finished;
              incr next;
              merge_ready ()
            end
            else Hashtbl.replace window i finished
          with e -> merge_failure := Some (e, Printexc.get_raw_backtrace ()))
  in
  (* Cell [i] with its private sinks, started at [t0]: its value and
     rounds, its sinks handed to the window. *)
  let run i t0 =
    let cell_m = if want_cell_metrics then Some (take_registry ()) else None in
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
    let v, rounds = run_cell { metrics = cell_m; tracer; spans = cell_sp } i in
    let wall =
      if cell_clock then elapsed t0 (Stdx.Metrics.wall_clock ()) else 0.0
    in
    if merging then finish i (cell_m, Trace.events tracer, wall);
    (v, rounds)
  in
  let task_end ~worker t0 =
    if task_clock then begin
      let t1 = Stdx.Metrics.wall_clock () in
      busy.(worker) <- busy.(worker) +. elapsed t0 t1;
      last_end.(worker) <- t1
    end
  in
  (* A task: its cell between the task clock's reads (a failing cell is
     timed too), then the heartbeat's report. *)
  let task ~worker i =
    let t0 =
      if cell_clock || task_clock then Stdx.Metrics.wall_clock () else 0.0
    in
    if task_clock && not (Float.is_nan last_end.(worker)) then
      claim.(worker) <- claim.(worker) +. elapsed last_end.(worker) t0;
    match run i t0 with
    | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      task_end ~worker t0;
      Printexc.raise_with_backtrace e bt
    | v, rounds ->
      task_end ~worker t0;
      Option.iter
        (fun hb ->
          let cost =
            match horizon with
            | Known _ -> costs.(i)
            | Of_result h ->
              let cost = cell_cost ~n (h v) in
              Stdx.Heartbeat.set_totals hb ~cells:0 ~cost;
              cost
          in
          let now = last_end.(worker) in
          Stdx.Heartbeat.cell_done ~rounds ~worker ~busy_s:(elapsed t0 now)
            ~now ~cost hb)
        heartbeat;
      v
  in
  let t_start = if task_clock then Stdx.Metrics.wall_clock () else 0.0 in
  (* Each worker's idle seconds, and the per-worker histograms, once
     the pool has drained, whether or not a cell failed. *)
  let idle () =
    if not task_clock then [||]
    else begin
      let wall = elapsed t_start (Stdx.Metrics.wall_clock ()) in
      let idle =
        Array.init workers (fun w -> elapsed (busy.(w) +. claim.(w)) wall)
      in
      Option.iter (fun m -> observe_workers m ~busy ~claim ~idle) metrics;
      idle
    end
  in
  let results, idle =
    match Stdx.Pool.exec ~jobs ?cost cells task with
    | results -> (results, idle ())
    | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      ignore (idle ());
      Printexc.raise_with_backtrace e bt
  in
  Option.iter
    (fun (e, bt) -> Printexc.raise_with_backtrace e bt)
    !merge_failure;
  (match trace with
  | Some tr when spans && seams -> emit_pool_spans tr ~busy ~claim ~idle
  | _ -> ());
  results
