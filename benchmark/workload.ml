(* The four benchmark workloads. A child process runs one of them once:
   set-up (plan, build, adversary registry, config), the timed campaign
   call through the same library entry points [countctl] uses, then an
   untimed correctness check and outcome digest. *)

open Sim
module R = Bench_record.Record

(* Every workload runs its pool on one worker domain. On the shared 2-vCPU
   reference machine two domains made back-to-back identical chaos-a36
   reps range from 3.0 to 4.7 s, since the slower vCPU sets the pool's
   wall; one domain kept them within about 10 %. *)
let jobs = 1

type mode =
  | Timed  (** end-to-end rep: no benchmark-side instrumentation *)
  | Traced  (** spans and metrics on; per-layer numbers *)
  | Telemetry_off  (** the hunt without its metrics/trace/heartbeat *)
  | Setup_only  (** exit right after set-up *)

let mode_name = function
  | Timed -> "timed"
  | Traced -> "traced"
  | Telemetry_off -> "telemetry-off"
  | Setup_only -> "setup"

let mode_of_name = function
  | "timed" -> Some Timed
  | "traced" -> Some Traced
  | "telemetry-off" -> Some Telemetry_off
  | "setup" -> Some Setup_only
  | _ -> None

let now = Unix.gettimeofday

(* ------------------------------------------------------------------ *)
(* Benchmark-side spans around every public call the child makes. Id 0
   is the parent's span for this child process. *)

type span = { id : int; parent : int; name : string; start_s : float; end_s : float }

type recorder = {
  enabled : bool;
  mutable spans : span list;
  mutable stack : int list;
  mutable next : int;
}

let recorder enabled = { enabled; spans = []; stack = [ 0 ]; next = 1 }

let with_span r name f =
  if not r.enabled then f ()
  else begin
    let id = r.next in
    r.next <- id + 1;
    let parent = List.hd r.stack in
    r.stack <- id :: r.stack;
    let start_s = now () in
    Fun.protect
      ~finally:(fun () ->
        r.stack <- List.tl r.stack;
        r.spans <- { id; parent; name; start_s; end_s = now () } :: r.spans)
      f
  end

(* ------------------------------------------------------------------ *)

type checked = {
  node_rounds : int;  (** n × rounds simulated, deterministic *)
  attempted : int;
  failed : int;
  phase_failures : int;
  digest : string;
}

type timed = {
  registry : Stdx.Metrics.t option;
  measured : (string * float) list;
      (** layer values the workload computes itself (hunt corpus I/O, trial ratios) *)
  check : unit -> checked;
}

type prepared = {
  n : int;
  timed : mode -> timed;
  schedule_gen : unit -> unit;
      (** the campaign's serial schedule generation, replayed with the
          same seeds *)
}

let digest_of b = Digest.to_hex (Digest.string (Buffer.contents b))

let a12_levels =
  [ { Counting.Plan.k = 4; big_f = 1 }; { Counting.Plan.k = 3; big_f = 3 } ]

let traced_registry mode =
  if mode = Traced then Some (Stdx.Metrics.create ()) else None

(* A recovered phase may not exceed the tower's Theorem 1 bound, and a
   phase that leaves enough rounds after its last perturbation to
   certify a recovery (bound + min_suffix) must recover; shorter
   unrecovered phases are counted, not failed. *)
let chaos_cell_ok ~bound ~c (o : Harness.Chaos.outcome) =
  let min_suffix = Min_suffix.clamp ~c ~rounds:o.Harness.Chaos.horizon None in
  List.for_all
    (fun (r : Engine.phase_report) ->
      match r.Engine.recovery with
      | Some t -> t <= bound
      | None -> r.Engine.end_round - r.Engine.last_perturbation < bound + min_suffix)
    o.Harness.Chaos.phases

let chaos ~rc ~levels ~greedy ~campaigns ~seeds ~phase_rounds =
  let tower =
    with_span rc "core.plan_tower" (fun () ->
        Counting.Plan.plan_tower_exn ~target_c:2 levels)
  in
  let (Algo.Spec.Packed spec) =
    with_span rc "core.build_tower" (fun () -> Counting.Build.tower tower)
  in
  let adversaries =
    with_span rc "sim.adversary_registry" (fun () ->
        Adversary.standard_suite ()
        @ if greedy then [ Adversary.greedy_confusion ~pool:2 () ] else [])
  in
  let phases = 3 and events = 2 and max_victims = 2 in
  let config =
    Harness.Chaos.Config.(
      default |> with_campaigns campaigns |> with_phases phases
      |> with_events events |> with_max_victims max_victims
      |> with_phase_rounds phase_rounds |> with_seeds seeds |> with_jobs jobs)
  in
  let bound = (Counting.Plan.top tower).Counting.Plan.time_bound in
  let c = spec.Algo.Spec.c and n = spec.Algo.Spec.n in
  let timed mode =
    let registry = traced_registry mode in
    let agg =
      with_span rc "sim.harness.chaos.run" (fun () ->
          Harness.Chaos.run ?metrics:registry ~spans:(mode = Traced) ~config
            ~spec ~adversaries ())
    in
    let check () =
      let b = Buffer.create 4096 in
      let failed = ref 0 in
      List.iter
        (fun (o : Harness.Chaos.outcome) ->
          if not (chaos_cell_ok ~bound ~c o) then incr failed;
          Printf.bprintf b "%d/%d:%d:" o.Harness.Chaos.schedule_seed
            o.Harness.Chaos.run_seed o.Harness.Chaos.rounds_simulated;
          List.iter
            (fun (r : Engine.phase_report) ->
              Printf.bprintf b "%s,"
                (match r.Engine.recovery with
                | Some t -> string_of_int t
                | None -> "-"))
            o.Harness.Chaos.phases;
          Buffer.add_char b '\n')
        agg.Harness.Chaos.outcomes;
      {
        node_rounds = n * agg.Harness.Chaos.total_rounds_simulated;
        attempted = List.length agg.Harness.Chaos.outcomes;
        failed = !failed;
        phase_failures = agg.Harness.Chaos.phase_failures;
        digest = digest_of b;
      }
    in
    { registry; measured = []; check }
  in
  let schedule_gen () =
    let event_margin = Min_suffix.default ~c in
    for seed = 1 to campaigns do
      let s =
        Schedule.random ~spec ~adversaries ~phases ~phase_rounds ~events
          ~max_victims ~event_margin ~seed ()
      in
      ignore (Min_suffix.resolve ~c ~rounds:(Schedule.total_rounds s) None)
    done
  in
  { n; timed; schedule_gen }

let sweep ~rc ~seed =
  let tower =
    with_span rc "core.plan_tower" (fun () ->
        Counting.Plan.plan_tower_exn ~target_c:2 a12_levels)
  in
  let (Algo.Spec.Packed spec) =
    with_span rc "core.build_tower" (fun () -> Counting.Build.tower tower)
  in
  let adversaries =
    with_span rc "sim.adversary_registry" (fun () -> Adversary.hostile_suite ())
  in
  let config =
    Harness.Config.(
      default |> with_rounds 4000
      |> with_seeds (List.init 30 (fun i -> seed + i))
      |> with_jobs jobs)
  in
  let bound = (Counting.Plan.top tower).Counting.Plan.time_bound in
  let timed mode =
    let registry = traced_registry mode in
    let agg =
      with_span rc "sim.harness.run" (fun () ->
          Harness.run ?metrics:registry ~spans:(mode = Traced) ~config ~spec
            ~adversaries ())
    in
    let check () =
      let b = Buffer.create 65536 in
      let failed = ref 0 in
      List.iter
        (fun (o : Harness.outcome) ->
          let at =
            match o.Harness.verdict with
            | Stabilise.Stabilized t ->
              if t > bound then incr failed;
              string_of_int t
            | Stabilise.Not_stabilized ->
              incr failed;
              "-"
          in
          Printf.bprintf b "%s/%s/%d:%s:%d\n" o.Harness.adversary
            (String.concat ";" (List.map string_of_int o.Harness.faulty))
            o.Harness.seed at o.Harness.rounds_simulated)
        agg.Harness.outcomes;
      {
        node_rounds = spec.Algo.Spec.n * agg.Harness.total_rounds_simulated;
        attempted = List.length agg.Harness.outcomes;
        failed = !failed;
        phase_failures = 0;
        digest = digest_of b;
      }
    in
    { registry; measured = []; check }
  in
  { n = spec.Algo.Spec.n; timed; schedule_gen = ignore }

let file_size path = (Unix.stat path).Unix.st_size

let count_lines path =
  In_channel.with_open_bin path (fun ic ->
      let rec go k =
        match In_channel.input_line ic with None -> k | Some _ -> go (k + 1)
      in
      go 0)

(* [countctl hunt --algorithm leader:4:5 --claim-f 1 --bound 8 --rounds 120
   --trials 3500 --hunt-seed S --metrics --trace T --heartbeat 1
   --corpus C], then [Corpus.read] and [Corpus.replay] of C. *)
let hunt ~rc ~seed ~dir =
  let (Algo.Spec.Packed spec) =
    with_span rc "core.follow_leader" (fun () ->
        Algo.Spec.Packed
          (Algo.Combinators.with_claimed_resilience
             (Counting.Trivial.follow_leader ~n:4 ~c:5)
             ~f:1))
  in
  let adversaries =
    with_span rc "sim.adversary_registry" (fun () ->
        Adversary.standard_suite () @ [ Adversary.greedy_confusion ~pool:2 () ])
  in
  let trials = 3500 and phase_rounds = 120 and time_bound = 8 in
  let config =
    Hunt.Config.(
      default |> with_trials trials |> with_seed seed |> with_run_seed 1
      |> with_phase_rounds phase_rounds |> with_time_bound time_bound
      |> with_jobs jobs)
  in
  let c = spec.Algo.Spec.c in
  let path name = Filename.concat dir name in
  let corpus = path "corpus.jsonl" in
  let timed mode =
    let telemetry = mode <> Telemetry_off in
    let registry = if telemetry then Some (Stdx.Metrics.create ()) else None in
    let report =
      let go ~trace ~heartbeat =
        with_span rc "sim.hunt.run" (fun () ->
            Hunt.run ?metrics:registry ?trace ~spans:(mode = Traced) ?heartbeat
              ~config ~spec ~adversaries ())
      in
      if not telemetry then go ~trace:None ~heartbeat:None
      else
        Out_channel.with_open_bin (path "heartbeat.jsonl") (fun hb_oc ->
            let hb =
              Stdx.Heartbeat.create ~label:spec.Algo.Spec.name ~interval_s:1.0
                ~out:hb_oc ()
            in
            Fun.protect
              ~finally:(fun () -> Stdx.Heartbeat.finish hb)
              (fun () ->
                Out_channel.with_open_bin (path "trace.jsonl") (fun tr_oc ->
                    let tr = Trace.jsonl tr_oc in
                    Trace.emit tr
                      (Trace.Meta
                         {
                           label = spec.Algo.Spec.name;
                           n = spec.Algo.Spec.n;
                           f = spec.Algo.Spec.f;
                           c;
                           time_bound = Some time_bound;
                         });
                    go ~trace:(Some tr) ~heartbeat:(Some hb))))
    in
    let entries = Hunt.Corpus.of_report ~spec ~hunt_seed:seed report in
    let t0 = now () in
    with_span rc "sim.hunt.corpus_write" (fun () ->
        Out_channel.with_open_bin corpus (fun oc -> Hunt.Corpus.write oc entries));
    let t1 = now () in
    let read =
      with_span rc "sim.hunt.corpus_read" (fun () ->
          In_channel.with_open_bin corpus (Hunt.Corpus.read ~adversaries))
    in
    let t2 = now () in
    let replayed =
      match read with
      | Error _ | Ok [] -> []
      | Ok read_entries ->
        with_span rc "sim.hunt.corpus_replay" (fun () ->
            Hunt.Corpus.replay ?metrics:registry ~spans:(mode = Traced) ~jobs
              ~spec ~entries:read_entries ())
    in
    let t3 = now () in
    let hits = List.length report.Hunt.hits in
    let per_trial v = float_of_int v /. float_of_int trials in
    let measured =
      [
        ("hunt.corpus_write_s", t1 -. t0);
        ("hunt.corpus_read_s", t2 -. t1);
        ("hunt.replay_s", t3 -. t2);
        ("hunt.corpus_bytes", float_of_int (file_size corpus));
        ("hunt.execs_per_trial", per_trial report.Hunt.executions);
        ("hunt.hit_frac", per_trial hits);
      ]
      @
      if telemetry then
        [
          ("trace.bytes", float_of_int (file_size (path "trace.jsonl")));
          ("heartbeat.lines", float_of_int (count_lines (path "heartbeat.jsonl")));
        ]
      else []
    in
    let check () =
      (* A hit fails unless its entry reads back byte-identical and
         replays to its recorded badness. *)
      let read_entries = match read with Ok l -> l | Error _ -> [] in
      let round_trips =
        List.length read_entries = List.length entries
        && List.for_all2
             (fun a b -> Hunt.Corpus.entry_to_json a = Hunt.Corpus.entry_to_json b)
             entries read_entries
      in
      let reproduced = List.map (fun (_, _, ok) -> ok) replayed in
      let failed =
        if not round_trips || List.length reproduced <> hits then hits
        else List.length (List.filter not reproduced)
      in
      let b = Buffer.create 65536 in
      Buffer.add_string b (In_channel.with_open_bin corpus In_channel.input_all);
      List.iter (fun ok -> Buffer.add_char b (if ok then '1' else '0')) reproduced;
      let rounds =
        match registry with
        | None -> 0
        | Some m -> (
          match Stdx.Metrics.find (Stdx.Metrics.snapshot m) "engine.rounds" with
          | Some (Stdx.Metrics.Counter r) -> r
          | _ -> 0)
      in
      {
        node_rounds = spec.Algo.Spec.n * rounds;
        attempted = trials;
        failed;
        phase_failures =
          List.fold_left
            (fun acc (h : _ Hunt.hit) -> acc + h.Hunt.badness.Hunt.failed_phases)
            0 report.Hunt.hits;
        digest = digest_of b;
      }
    in
    { registry; measured; check }
  in
  let schedule_gen () =
    (* Hunt.run's serial pre-pool step: two seeds per trial from the
       master stream, then Schedule.random plus 0..mutations mutations. *)
    let margin = Min_suffix.default ~c in
    let { Hunt.Config.phases; events; max_victims; mutations; _ } = config in
    let master = Stdx.Rng.create seed in
    for _ = 1 to trials do
      let gen_seed = Stdx.Rng.bits master in
      let mut_seed = Stdx.Rng.bits master in
      let s =
        ref
          (Schedule.random ~spec ~adversaries ~phases ~phase_rounds ~events
             ~max_victims ~event_margin:margin ~seed:gen_seed ())
      in
      let mrng = Stdx.Rng.create mut_seed in
      for _ = 1 to Stdx.Rng.int mrng (mutations + 1) do
        s :=
          Schedule.mutate ~spec ~adversaries ~max_victims ~event_margin:margin
            ~rng:mrng !s
      done
    done
  in
  { n = spec.Algo.Spec.n; timed; schedule_gen }

let setup ~rc ~dir ~seed = function
  | "chaos-a36" ->
    chaos ~rc ~levels:Counting.Plan.figure2_levels ~greedy:false ~campaigns:6
      ~seeds:[ seed; seed + 1 ] ~phase_rounds:1500
  | "chaos-a12-greedy" ->
    chaos ~rc ~levels:a12_levels ~greedy:true ~campaigns:8 ~seeds:[ seed ]
      ~phase_rounds:600
  | "hunt-observed" -> hunt ~rc ~seed ~dir
  | "sweep-a12" -> sweep ~rc ~seed
  | w -> invalid_arg ("unknown workload " ^ w)

(* ------------------------------------------------------------------ *)
(* Per-layer numbers of a traced child *)

let layer_values ~n ~wall ~core_build_s ~schedule_gen_s ~(gc0 : Gc.stat)
    ~(gc1 : Gc.stat) ~measured snap =
  let counter name =
    match Stdx.Metrics.find snap name with
    | Some (Stdx.Metrics.Counter v) -> float_of_int v
    | _ -> 0.0
  in
  let hsum name =
    match Stdx.Metrics.find snap name with
    | Some (Stdx.Metrics.Histogram h) -> h.Stdx.Metrics.sum
    | _ -> 0.0
  in
  let ratio a b = if b = 0.0 then 0.0 else a /. b in
  let busy = hsum "pool.worker_busy_s"
  and claim = hsum "pool.worker_claim_s"
  and idle = hsum "pool.worker_idle_s" in
  (* Every drain runs [jobs] workers and splits jobs × its wall into
     busy + claim + idle, so the drains' summed wall is this. *)
  let pool_wall = (busy +. claim +. idle) /. float_of_int jobs in
  let craft = hsum "span.engine.craft_s"
  and step = hsum "span.engine.step_s"
  and detect = hsum "span.engine.detect_s" in
  let loop = craft +. step +. detect in
  let runs = counter "engine.runs" in
  let rounds = counter "engine.rounds" in
  let node_rounds = float_of_int n *. rounds in
  let trial = hsum "span.hunt.trial_s" and shrink = hsum "span.hunt.shrink_s" in
  let flat = counter "engine.flat_craft_phases"
  and bridged = counter "engine.bridged_craft_phases" in
  let outside_pool = wall -. pool_wall in
  (* Top-level rows are sequential sections of the campaign call: the
     serial schedule generation, the pool drains, and the hunt's corpus
     write and read-back (its replay drain is inside pool.wall_s). *)
  let top =
    R.waterfall ~wall
      ([ ("schedule.gen_s", schedule_gen_s); ("pool.wall_s", pool_wall) ]
      @ List.filter
          (fun (name, _) ->
            name = "hunt.corpus_write_s" || name = "hunt.corpus_read_s")
          measured)
  in
  let values =
    [
      ("core.build_s", core_build_s);
      ("pool.busy_s", busy);
      ("pool.claim_s", claim);
      ("pool.idle_s", idle);
      ("pool.idle_frac", ratio idle (pool_wall *. float_of_int jobs));
      ( "pool.tasks",
        counter "chaos.cells" +. counter "harness.cells" +. counter "hunt.cells"
      );
      ("engine.craft_s", craft);
      ("engine.step_s", step);
      ("engine.detect_s", detect);
      ("engine.loop_s", loop);
      ("engine.ns_per_node_round", ratio (loop *. 1e9) node_rounds);
      ("engine.span_coverage", ratio loop busy);
      ("engine.runs", runs);
      ("engine.node_rounds", node_rounds);
      ("engine.rounds_per_run", ratio rounds runs);
      ("engine.early_exit_frac", ratio (counter "engine.early_exits") runs);
      ("engine.bridged_phase_frac", ratio bridged (flat +. bridged));
      ("cell.other_s", busy -. loop);
      ("hunt.trial_s", trial);
      ("hunt.shrink_s", shrink);
      ("hunt.shrink_frac", ratio shrink trial);
      ( "hunt.shrink_steps_per_hit",
        ratio (counter "hunt.shrink_steps") (counter "hunt.hits") );
      ("driver.outside_pool_s", outside_pool);
      ( "gc.minor_words_per_node_round",
        ratio (gc1.Gc.minor_words -. gc0.Gc.minor_words) node_rounds );
      ( "gc.minor_collections",
        float_of_int (gc1.Gc.minor_collections - gc0.Gc.minor_collections) );
      ( "gc.major_collections",
        float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections) );
    ]
    @ top @ measured
  in
  (values, top)

(* ------------------------------------------------------------------ *)
(* The child's one JSON line *)

type result = {
  setup_done : float;  (** absolute time set-up finished *)
  core_build_s : float;  (** in-process set-up time *)
  wall_s : float;
  checked : checked option;  (** [None] for set-up-only children *)
  peak_rss_mb : float;
  layers : (string * float) list;
  waterfall : (string * float) list;
  spans : span list;
}

let peak_rss_mb () =
  match
    In_channel.with_open_bin "/proc/self/status" (fun ic ->
        let rec go () =
          match In_channel.input_line ic with
          | None -> None
          | Some l when String.starts_with ~prefix:"VmHWM:" l ->
            Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" (fun kb ->
                Some (float_of_int kb /. 1024.0))
          | Some _ -> go ()
        in
        go ())
  with
  | Some v -> v
  | None | (exception Sys_error _) -> nan

let run ~workload ~seed ~mode ~dir =
  let rc = recorder (mode = Traced) in
  let t_setup = now () in
  let p = with_span rc "setup" (fun () -> setup ~rc ~dir ~seed workload) in
  let setup_done = now () in
  let core_build_s = setup_done -. t_setup in
  if mode = Setup_only then
    {
      setup_done;
      core_build_s;
      wall_s = 0.0;
      checked = None;
      peak_rss_mb = peak_rss_mb ();
      layers = [];
      waterfall = [];
      spans = List.rev rc.spans;
    }
  else begin
    let gc0 = Gc.quick_stat () in
    let t0 = now () in
    let tm = with_span rc "campaign" (fun () -> p.timed mode) in
    let wall_s = now () -. t0 in
    let gc1 = Gc.quick_stat () in
    let checked = with_span rc "check" tm.check in
    let layers, waterfall =
      match (mode, tm.registry) with
      | Traced, Some reg ->
        let g0 = now () in
        with_span rc "schedule.gen" p.schedule_gen;
        let schedule_gen_s = now () -. g0 in
        layer_values ~n:p.n ~wall:wall_s ~core_build_s ~schedule_gen_s ~gc0 ~gc1
          ~measured:tm.measured (Stdx.Metrics.snapshot reg)
      | _ -> ([], [])
    in
    {
      setup_done;
      core_build_s;
      wall_s;
      checked = Some checked;
      peak_rss_mb = peak_rss_mb ();
      layers;
      waterfall;
      spans = List.rev rc.spans;
    }
  end


let result_to_json r =
  let span_json s =
    R.obj
      [
        R.kv "id" (string_of_int s.id);
        R.kv "parent" (string_of_int s.parent);
        R.kv "name" (R.str s.name);
        R.kv "start_s" (R.num s.start_s);
        R.kv "end_s" (R.num s.end_s);
      ]
  in
  R.obj
    ([
       R.kv "setup_done" (R.num r.setup_done);
       R.kv "core_build_s" (R.num r.core_build_s);
       R.kv "wall_s" (R.num r.wall_s);
       R.kv "peak_rss_mb" (R.num r.peak_rss_mb);
     ]
    @ (match r.checked with
      | None -> []
      | Some c ->
        [
          R.kv "node_rounds" (string_of_int c.node_rounds);
          R.kv "attempted" (string_of_int c.attempted);
          R.kv "failed" (string_of_int c.failed);
          R.kv "phase_failures" (string_of_int c.phase_failures);
          R.kv "digest" (R.str c.digest);
        ])
    @ [
        R.kv "layers" (R.pairs_json r.layers);
        R.kv "waterfall" (R.pairs_json r.waterfall);
        R.kv "spans" (R.arr (List.map span_json r.spans));
      ])

let result_of_json j =
  let open Stdx.Json in
  let span_of_json s =
    {
      id = to_int "id" (field s "id");
      parent = to_int "parent" (field s "parent");
      name = to_string "name" (field s "name");
      start_s = R.to_num "start_s" (field s "start_s");
      end_s = R.to_num "end_s" (field s "end_s");
    }
  in
  {
    setup_done = R.to_num "setup_done" (field j "setup_done");
    core_build_s = R.to_num "core_build_s" (field j "core_build_s");
    wall_s = R.to_num "wall_s" (field j "wall_s");
    peak_rss_mb = R.to_num "peak_rss_mb" (field j "peak_rss_mb");
    checked =
      (match field_opt j "digest" with
      | None -> None
      | Some d ->
        Some
          {
            node_rounds = to_int "node_rounds" (field j "node_rounds");
            attempted = to_int "attempted" (field j "attempted");
            failed = to_int "failed" (field j "failed");
            phase_failures = to_int "phase_failures" (field j "phase_failures");
            digest = to_string "digest" d;
          });
    layers = R.pairs_of_json "layers" (field j "layers");
    waterfall = R.pairs_of_json "waterfall" (field j "waterfall");
    spans = List.map span_of_json (to_list "spans" (field j "spans"));
  }
