(* Experiment P1: the cost-aware sharded sweep scheduler, measured.

   The grid is ~1K follow-leader cells with mixed sizes and horizons —
   mostly cheap cells plus a thin expensive tail, sorted ascending by
   cost so that in-order claiming meets the expensive cells last (the
   adversarial layout: the tail becomes a straggler on one worker).
   Every cell runs the flat engine in Full_horizon mode, so its wall
   clock tracks the scheduler cost model (horizon x n^2) closely.

   Two experiments share the grid:

   - the jobs ladder: requested jobs in {1, 2, 4, 8} with cost-sorted
     (LPT) claiming, checking every run's outcomes against the
     sequential reference (the Stdx.Pool determinism guarantee) and
     recording requested vs actual jobs — the pool clamps jobs only to
     the grid size, so a box with fewer cores simply timeshares and the
     row is flagged [oversubscribed] rather than silently collapsed;

   - the imbalance duel: index order (no ~cost) vs ~cost at jobs = 4,
     comparing per-worker busy seconds, which each task adds to its
     worker's slot (the pool passes the worker id and reads no clock). The makespan
     (max worker busy) is the wall clock the claim order would need on
     dedicated cores, so it is the scheduling metric that survives
     timesharing: LPT keeps the expensive tail off a single straggler
     and its makespan/mean ratio stays near 1.

   Results land in BENCH_parallel.json: the jobs curve, outcome parity
   per row, the per-order worker_busy_s spread, and a registry snapshot
   with the pool.worker_busy_s histogram. *)

let json_path = "BENCH_parallel.json"
let jobs_ladder = [ 1; 2; 4; 8 ]
let duel_jobs = 4
let duel_reps = 3

(* --- the skewed grid ------------------------------------------------ *)

type cell = { n : int; rounds : int; seed : int }

(* The scheduler cost model (Campaign.cell_cost): one all-to-all
   message round costs n^2, and Full_horizon runs all [rounds] of them. *)
let cell_cost c = float_of_int c.rounds *. float_of_int (c.n * c.n)

let ns = [| 4; 6; 8; 12; 16 |]
let horizon_tiers = [| 256; 512; 1024; 4096 |]

(* Skewed tier draw: ~55% / 25% / 15% / 5% from cheap to expensive. *)
let tier_of_draw u =
  if u < 55 then 0 else if u < 80 then 1 else if u < 95 then 2 else 3

(* 1018 random cells plus 6 deterministic spikes (n = 16, 65536 rounds —
   together more than half the grid's total cost): after the
   ascending-cost sort the spikes sit at the very end, which is exactly
   where in-order claiming hurts most. *)
let make_grid () =
  let rng = Stdx.Rng.create 0x90125 in
  let base =
    Array.init 1018 (fun i ->
        let n = ns.(Stdx.Rng.int rng (Array.length ns)) in
        let rounds = horizon_tiers.(tier_of_draw (Stdx.Rng.int rng 100)) in
        { n; rounds; seed = i + 1 })
  in
  let spikes =
    Array.init 6 (fun i -> { n = 16; rounds = 65536; seed = 9001 + i })
  in
  let cells = Array.append base spikes in
  Array.sort
    (fun a b ->
      match Float.compare (cell_cost a) (cell_cost b) with
      | 0 -> compare a b
      | r -> r)
    cells;
  cells

let specs =
  List.map (fun n -> (n, Counting.Trivial.follow_leader ~n ~c:8)) [ 4; 6; 8; 12; 16 ]

let run_cell cell =
  let spec = List.assoc cell.n specs in
  let o =
    Sim.Engine.run ~mode:Sim.Engine.Full_horizon ~spec
      ~schedule:
        (Sim.Schedule.static ~adversary:(Sim.Adversary.benign ()) ~faulty:[]
           ~rounds:cell.rounds)
      ~seed:cell.seed ()
  in
  (o.Sim.Engine.verdict, o.Sim.Engine.rounds_simulated, o.Sim.Engine.early_exit)

(* --- one measured execution of the whole grid ----------------------- *)

type measurement = {
  requested_jobs : int;
  actual_jobs : int;
  order : string;  (** "inorder" (no ~cost) or "cost" *)
  wall_s : float;
  makespan_s : float;  (** max worker busy seconds *)
  imbalance : float;  (** makespan / mean worker busy; 1.0 = balanced *)
  modeled_s : float;
      (** deterministic greedy replay of the claim order on
          [requested_jobs] dedicated workers, task duration = cost
          model, scaled to the measured sequential wall: the wall clock
          this schedule needs without timesharing *)
  worker_busy_s : float array;
  worker_tasks : int array;
  parity : bool;  (** outcomes identical to the sequential reference *)
}

(* The claim order the pool uses, read back from a jobs = 1 drain of
   no-op tasks (they run in claim order there). *)
let claim_order ?cost n =
  let order = ref [] in
  ignore (Stdx.Pool.exec ?cost n (fun ~worker:_ i -> order := i :: !order));
  Array.of_list (List.rev !order)

(* Replay the claim order offline: the earliest-free worker claims the
   next index. Deterministic — on a timeshared box the measured wall
   clocks of two orders with equal total work coincide up to noise, so
   this is the comparison that shows what the order costs on dedicated
   cores. *)
let modeled_wall_s ~cells ~seq_wall_s ~total_cost ~jobs ?cost () =
  let free = Array.make jobs 0.0 in
  Array.iter
    (fun i ->
      let w = ref 0 in
      for j = 1 to jobs - 1 do
        if free.(j) < free.(!w) then w := j
      done;
      free.(!w) <- free.(!w) +. cell_cost cells.(i))
    (claim_order ?cost (Array.length cells));
  Array.fold_left Float.max 0.0 free /. total_cost *. seq_wall_s

let execute ?(modeled_s = 0.0) ~cells ~reference ~jobs ?cost () =
  let n = Array.length cells in
  let actual_jobs = Stdx.Pool.workers ~jobs n in
  let busy = Array.make actual_jobs 0.0 in
  let tasks = Array.make actual_jobs 0 in
  let t0 = Stdx.Metrics.wall_clock () in
  let outs =
    Stdx.Pool.exec ~jobs ?cost n (fun ~worker i ->
        let start = Stdx.Metrics.wall_clock () in
        let out = run_cell cells.(i) in
        busy.(worker) <-
          busy.(worker) +. Float.max 0.0 (Stdx.Metrics.wall_clock () -. start);
        tasks.(worker) <- tasks.(worker) + 1;
        out)
  in
  let wall_s = Stdx.Metrics.wall_clock () -. t0 in
  let makespan_s = Array.fold_left Float.max 0.0 busy in
  let mean =
    Array.fold_left ( +. ) 0.0 busy /. float_of_int (Array.length busy)
  in
  let imbalance = if mean > 0.0 then makespan_s /. mean else 1.0 in
  let parity =
    match reference with None -> true | Some r -> outs = r
  in
  ( outs,
    {
      requested_jobs = jobs;
      actual_jobs;
      order = (if Option.is_none cost then "inorder" else "cost");
      wall_s;
      makespan_s;
      imbalance;
      modeled_s;
      worker_busy_s = busy;
      worker_tasks = tasks;
      parity;
    } )

(* --- JSON ----------------------------------------------------------- *)

let json_floats a =
  String.concat ", "
    (Array.to_list (Array.map (Printf.sprintf "%.6f") a))

let json_ints a =
  String.concat ", " (Array.to_list (Array.map string_of_int a))

let json_of_measurement ~ncores m =
  Printf.sprintf
    "    {\"order\": %S, \"requested_jobs\": %d, \"actual_jobs\": %d,\n\
    \     \"clamped\": %b, \"oversubscribed\": %b, \"outcome_parity\": %b,\n\
    \     \"wall_clock_s\": %.6f, \"makespan_s\": %.6f, \"imbalance\": %.4f,\n\
    \     \"dedicated_wall_s\": %.6f,\n\
    \     \"worker_busy_s\": [%s], \"worker_tasks\": [%s]}"
    m.order m.requested_jobs m.actual_jobs
    (m.actual_jobs < m.requested_jobs)
    (m.requested_jobs > ncores)
    m.parity m.wall_s m.makespan_s m.imbalance m.modeled_s
    (json_floats m.worker_busy_s)
    (json_ints m.worker_tasks)

(* --- the experiment -------------------------------------------------- *)

let run () =
  let ncores = Stdx.Pool.recommended_jobs () in
  let cells = make_grid () in
  let total_cost = Array.fold_left (fun a c -> a +. cell_cost c) 0.0 cells in
  let max_cost = cell_cost cells.(Array.length cells - 1) in
  Bench_common.section
    (Printf.sprintf
       "Cost-aware sweep scheduler - %d-cell skewed grid, jobs in {%s}"
       (Array.length cells)
       (String.concat ", " (List.map string_of_int jobs_ladder)));
  Printf.printf
    "grid: follow-leader cells, n in {4..16}, horizons {256..65536};\n\
     total cost %.0f node-messages, largest cell %.0f (%.1f%% of the grid),\n\
     sorted ascending by cost (adversarial for in-order claiming).\n"
    total_cost max_cost
    (100.0 *. max_cost /. total_cost);
  (* Sequential in-order run: the reference outcomes every other
     configuration must reproduce bit-for-bit. *)
  let reference, seq =
    execute ~cells ~reference:None ~jobs:1 ()
  in
  let seq = { seq with modeled_s = seq.wall_s } in
  let modeled ~jobs ?cost () =
    modeled_wall_s ~cells ~seq_wall_s:seq.wall_s ~total_cost ~jobs ?cost ()
  in
  let cost i = cell_cost cells.(i) in
  (* The jobs ladder under cost-sorted claiming. *)
  let ladder =
    List.map
      (fun jobs ->
        snd
          (execute
             ~modeled_s:(modeled ~jobs ~cost ())
             ~cells ~reference:(Some reference) ~jobs ~cost ()))
      jobs_ladder
  in
  let metrics = Stdx.Metrics.create () in
  List.iter
    (fun m ->
      Array.iter
        (fun b ->
          Stdx.Metrics.observe ~buckets:Stdx.Metrics.time_buckets metrics
            "pool.worker_busy_s" b)
        m.worker_busy_s)
    ladder;
  let base_wall =
    match ladder with m :: _ -> m.wall_s | [] -> seq.wall_s
  in
  let t =
    Stdx.Table.create
      [
        "requested"; "actual"; "order"; "wall (s)"; "speedup";
        "dedicated (s)"; "parity";
      ]
  in
  List.iter
    (fun m ->
      Stdx.Table.add_row t
        [
          string_of_int m.requested_jobs;
          (string_of_int m.actual_jobs
          ^ if m.requested_jobs > ncores then " (oversubscribed)" else "");
          m.order;
          Printf.sprintf "%.3f" m.wall_s;
          Printf.sprintf "%.2fx" (base_wall /. Float.max 1e-9 m.wall_s);
          Printf.sprintf "%.3f" m.modeled_s;
          (if m.parity then "identical" else "MISMATCH");
        ])
    ladder;
  Stdx.Table.print t;
  Printf.printf "recommended_domain_count = %d (rows above it timeshare)\n"
    ncores;
  (* The imbalance duel: same grid, same jobs, index order vs ~cost.
     [duel_reps] repetitions per order; the minimum-wall repetition is
     kept (wall clocks on a shared box are noisy upward, never downward). *)
  Bench_common.subsection
    (Printf.sprintf "claim-order duel at jobs = %d" duel_jobs);
  let duel_rep ?cost () =
    let reps =
      List.init duel_reps (fun _ ->
          snd
            (execute
               ~modeled_s:(modeled ~jobs:duel_jobs ?cost ())
               ~cells ~reference:(Some reference) ~jobs:duel_jobs ?cost ()))
    in
    List.fold_left
      (fun best m -> if m.wall_s < best.wall_s then m else best)
      (List.hd reps) (List.tl reps)
  in
  let inorder = duel_rep () and cost = duel_rep ~cost () in
  let duel = [ inorder; cost ] in
  let dt =
    Stdx.Table.create
      [
        "order"; "wall (s)"; "makespan (s)"; "imbalance"; "dedicated (s)";
        "parity";
      ]
  in
  List.iter
    (fun m ->
      Stdx.Table.add_row dt
        [
          m.order;
          Printf.sprintf "%.3f" m.wall_s;
          Printf.sprintf "%.3f" m.makespan_s;
          Printf.sprintf "%.3f" m.imbalance;
          Printf.sprintf "%.3f" m.modeled_s;
          (if m.parity then "identical" else "MISMATCH");
        ])
    duel;
  Stdx.Table.print dt;
  (* The imbalance ratio and the dedicated-core replay are the
     structural comparisons: on a timeshared box the two orders'
     measured wall clocks coincide (total CPU work is identical;
     differences are noise), but in-order claiming still strands the
     expensive tail on a subset of workers, which the per-worker busy
     spread exposes at any core count. *)
  let cost_wins =
    cost.imbalance <= inorder.imbalance && cost.modeled_s <= inorder.modeled_s
  in
  let cost_wins_makespan = cost.makespan_s <= inorder.makespan_s in
  let cost_wins_wall = cost.wall_s <= inorder.wall_s in
  Printf.printf
    "cost-sorted vs in-order: imbalance %.3f vs %.3f, dedicated-core wall \
     %.3fs vs %.3fs (%s)\n"
    cost.imbalance inorder.imbalance cost.modeled_s inorder.modeled_s
    (if cost_wins then "cost-sorted wins" else "in-order wins");
  let all_parity = List.for_all (fun m -> m.parity) (seq :: ladder @ duel) in
  let oc = open_out json_path in
  Printf.fprintf oc
    "{\n\
    \  \"grid\": \"follow-leader-skewed\",\n\
    \  \"cells\": %d,\n\
    \  \"total_cost_node_messages\": %.0f,\n\
    \  \"largest_cell_cost\": %.0f,\n\
    \  \"cost_model\": \"horizon * n^2\",\n\
    \  \"recommended_domain_count\": %d,\n\
    \  \"outcome_parity\": %b,\n\
    \  \"measurements\": [\n%s\n  ],\n\
    \  \"imbalance_experiment\": {\n\
    \    \"jobs\": %d,\n\
    \    \"reps_per_order\": %d,\n\
    \    \"orders\": [\n%s\n    ],\n\
    \    \"cost_sorted_beats_in_order\": %b,\n\
    \    \"cost_sorted_beats_in_order_makespan\": %b,\n\
    \    \"cost_sorted_beats_in_order_wall\": %b\n\
    \  },\n\
    \  \"metrics\": %s\n\
     }\n"
    (Array.length cells) total_cost max_cost ncores all_parity
    (String.concat ",\n"
       (List.map (json_of_measurement ~ncores) (seq :: ladder)))
    duel_jobs duel_reps
    (String.concat ",\n" (List.map (json_of_measurement ~ncores) duel))
    cost_wins cost_wins_makespan cost_wins_wall
    (Stdx.Metrics.to_json (Stdx.Metrics.snapshot metrics));
  close_out oc;
  Printf.printf "[scheduler record written to %s]\n" json_path;
  if not all_parity then begin
    print_endline "ERROR: some configuration diverged from the sequential reference!";
    exit 1
  end
