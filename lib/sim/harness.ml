type outcome = {
  adversary : string;
  faulty : int list;
  seed : int;
  verdict : Stabilise.verdict;
  rounds_simulated : int;
  early_exit : bool;
  recent_outputs : (int * int array) list;
}

type aggregate = {
  outcomes : outcome list;
  all_stabilized : bool;
  worst : int option;
  times : int list;
  horizon : int;
  total_rounds_simulated : int;
}

module Config = struct
  type t = {
    fault_sets : int list list option;
    seeds : int list;
    min_suffix : int option;
    mode : Engine.mode;
    rounds : int;
    jobs : int;
  }

  let default =
    {
      fault_sets = None;
      seeds = [ 1; 2; 3; 4; 5 ];
      min_suffix = None;
      mode = Engine.Streaming;
      rounds = 4000;
      jobs = 1;
    }

  let with_fault_sets fault_sets t = { t with fault_sets = Some fault_sets }
  let with_seeds seeds t = { t with seeds }
  let with_min_suffix min_suffix t = { t with min_suffix = Some min_suffix }
  let with_mode mode t = { t with mode }
  let with_rounds rounds t = { t with rounds }
  let with_jobs jobs t = { t with jobs }
end

let spread_fault_set ~n ~f =
  if f = 0 then []
  else List.init f (fun i -> i * n / f)

let default_fault_sets ~n ~f =
  if f = 0 then [ [] ]
  else begin
    let prefix = List.init f (fun i -> i) in
    let suffix = List.init f (fun i -> n - 1 - i) in
    let spread = spread_fault_set ~n ~f in
    let singles = if f >= 1 then [ [ 0 ]; [ n / 2 ] ] else [] in
    let candidates = ([] :: prefix :: suffix :: spread :: singles) in
    List.sort_uniq compare (List.map (List.sort_uniq Int.compare) candidates)
  end

let aggregate_of ~horizon outcomes =
  let times =
    List.filter_map
      (fun o ->
        match o.verdict with
        | Stabilise.Stabilized t -> Some t
        | Stabilise.Not_stabilized -> None)
      outcomes
  in
  let all_stabilized =
    outcomes <> [] && List.length times = List.length outcomes
  in
  let worst =
    if all_stabilized then Some (List.fold_left max 0 times) else None
  in
  let total_rounds_simulated =
    List.fold_left (fun acc o -> acc + o.rounds_simulated) 0 outcomes
  in
  { outcomes; all_stabilized; worst; times; horizon; total_rounds_simulated }

let run ?metrics ?trace ?spans ?heartbeat ?(config = Config.default)
    ~(spec : 's Algo.Spec.t) ~adversaries () =
  let { Config.fault_sets; seeds; min_suffix; mode; rounds; jobs } = config in
  let n = spec.Algo.Spec.n and f = spec.Algo.Spec.f in
  let fault_sets =
    match fault_sets with Some fs -> fs | None -> default_fault_sets ~n ~f
  in
  let min_suffix = Min_suffix.resolve ~c:spec.Algo.Spec.c ~rounds min_suffix in
  (* The grid is flattened up front so results land in pre-sized slots:
     every run is keyed by its own (adversary, faulty, seed) — the engine
     derives all randomness from the seed — so [~jobs:n] is
     outcome-for-outcome identical to [~jobs:1]. *)
  let grid =
    Array.of_list
      (List.concat_map
         (fun adversary ->
           List.concat_map
             (fun faulty ->
               List.map (fun seed -> (adversary, faulty, seed)) seeds)
             fault_sets)
         adversaries)
  in
  let outcomes =
    Campaign.exec ?metrics ?trace ?spans ?heartbeat ~jobs ~prefix:"harness" ~n
      ~horizon:(Campaign.Known (fun _ -> rounds))
      ~label:(fun i ->
        let adversary, faulty, seed = grid.(i) in
        Printf.sprintf "%s f=[%s] seed=%d"
          (Adversary.name adversary)
          (String.concat ";" (List.map string_of_int faulty))
          seed)
      (Array.length grid)
      (fun cell i ->
        let adversary, faulty, seed = grid.(i) in
        let o =
          Engine.run ?metrics:cell.Campaign.metrics ~tracer:cell.Campaign.tracer
            ~spans:cell.Campaign.spans ~mode ~min_suffix ~spec
            ~schedule:(Schedule.static ~adversary ~faulty ~rounds)
            ~seed ()
        in
        ( {
            adversary = Adversary.name adversary;
            faulty;
            seed;
            verdict = o.Engine.verdict;
            rounds_simulated = o.Engine.rounds_simulated;
            early_exit = o.Engine.early_exit;
            recent_outputs =
              (match o.Engine.verdict with
              | Stabilise.Not_stabilized -> o.Engine.recent_outputs
              | Stabilise.Stabilized _ -> []);
          },
          o.Engine.rounds_simulated ))
  in
  aggregate_of ~horizon:rounds (Array.to_list outcomes)

module Chaos = struct
  module Config = struct
    type t = {
      campaigns : int;
      phases : int;
      phase_rounds : int;
      events : int;
      max_victims : int;
      seeds : int list;
      min_suffix : int option;
      jobs : int;
    }

    let default =
      {
        campaigns = 5;
        phases = 3;
        phase_rounds = 500;
        events = 2;
        max_victims = 2;
        seeds = [ 1; 2; 3 ];
        min_suffix = None;
        jobs = 1;
      }

    let with_campaigns campaigns t = { t with campaigns }
    let with_phases phases t = { t with phases }
    let with_phase_rounds phase_rounds t = { t with phase_rounds }
    let with_events events t = { t with events }
    let with_max_victims max_victims t = { t with max_victims }
    let with_seeds seeds t = { t with seeds }
    let with_min_suffix min_suffix t = { t with min_suffix = Some min_suffix }
    let with_jobs jobs t = { t with jobs }
  end

  type outcome = {
    schedule_seed : int;
    schedule : string;
    run_seed : int;
    phases : Engine.phase_report list;
    recovered : bool;
    worst_recovery : int option;
    rounds_simulated : int;
    horizon : int;
  }

  type aggregate = {
    outcomes : outcome list;
    all_recovered : bool;
    phase_verdicts : int;
    phase_failures : int;
    recoveries : int list;
    worst_recovery : int option;
    recovery_p50 : float option;
    recovery_p90 : float option;
    total_rounds_simulated : int;
  }

  let aggregate_outcomes outcomes =
    let recoveries =
      List.concat_map
        (fun o ->
          List.filter_map
            (fun (r : Engine.phase_report) -> r.Engine.recovery)
            o.phases)
        outcomes
    in
    let phase_verdicts =
      List.fold_left (fun acc o -> acc + List.length o.phases) 0 outcomes
    in
    let phase_failures = phase_verdicts - List.length recoveries in
    let all_recovered = outcomes <> [] && phase_failures = 0 in
    let worst_recovery =
      if all_recovered && recoveries <> [] then
        Some (List.fold_left max 0 recoveries)
      else None
    in
    let pct p =
      if recoveries = [] then None
      else Some (Stdx.Stats.percentile p (List.map float_of_int recoveries))
    in
    {
      outcomes;
      all_recovered;
      phase_verdicts;
      phase_failures;
      recoveries;
      worst_recovery;
      recovery_p50 = pct 0.5;
      recovery_p90 = pct 0.9;
      total_rounds_simulated =
        List.fold_left (fun acc o -> acc + o.rounds_simulated) 0 outcomes;
    }

  let outcome_of ~schedule_seed ~schedule ~run_seed
      (o : _ Engine.outcome) =
    let phases = o.Engine.phases in
    let recovered =
      List.for_all
        (fun (r : Engine.phase_report) -> r.Engine.recovery <> None)
        phases
    in
    let worst_recovery =
      if recovered then
        Some
          (List.fold_left
             (fun acc (r : Engine.phase_report) ->
               match r.Engine.recovery with Some v -> max acc v | None -> acc)
             0 phases)
      else None
    in
    {
      schedule_seed;
      schedule = Schedule.describe schedule;
      run_seed;
      phases;
      recovered;
      worst_recovery;
      rounds_simulated = o.Engine.rounds_simulated;
      horizon = o.Engine.horizon;
    }

  (* The one chaos-shaped grid: every entry is a (schedule, run seed,
     min-suffix request) triple fully keyed by its own contents, so the
     aggregate is identical at any [jobs]. [run] generates
     its entries; [replay] takes them from a corpus. Cell [i] reports
     [schedule_seed i] and is labelled "<kind> <schedule_seed i> seed
     <run seed>". *)
  let exec_entries ?metrics ?trace ?spans ?heartbeat ~jobs
      ~(spec : 's Algo.Spec.t) ~kind ~schedule_seed entries =
    Campaign.exec ?metrics ?trace ?spans ?heartbeat ~jobs ~prefix:"chaos" ~n:spec.Algo.Spec.n
      ~horizon:
        (Campaign.Known
           (fun i ->
             let sched, _, _ = entries.(i) in
             Schedule.total_rounds sched))
      ~label:(fun i ->
        let _, run_seed, _ = entries.(i) in
        Printf.sprintf "%s %d seed %d" kind (schedule_seed i) run_seed)
      (Array.length entries)
      (fun cell i ->
        let sched, run_seed, min_suffix = entries.(i) in
        let o =
          Engine.run ?metrics:cell.Campaign.metrics
            ~tracer:cell.Campaign.tracer ~spans:cell.Campaign.spans
            ?min_suffix ~spec ~schedule:sched ~seed:run_seed ()
        in
        let outcome =
          outcome_of ~schedule_seed:(schedule_seed i) ~schedule:sched
            ~run_seed o
        in
        (outcome, o.Engine.rounds_simulated))
    |> Array.to_list |> aggregate_outcomes

  let run ?metrics ?trace ?spans ?heartbeat ?(config = Config.default)
      ~(spec : 's Algo.Spec.t) ~adversaries () =
    let {
      Config.campaigns;
      phases;
      phase_rounds;
      events;
      max_victims;
      seeds;
      min_suffix;
      jobs;
    } =
      config
    in
    if campaigns < 1 then invalid_arg "Harness.Chaos.run: campaigns < 1";
    if seeds = [] then invalid_arg "Harness.Chaos.run: no seeds";
    (* Schedules (from schedule seeds 1..campaigns) and their resolved
       min_suffix are fixed before the pool starts: campaign i / run seed
       s is fully keyed by (i, s), so any [jobs] yields identical
       outcomes, in grid order. *)
    (* Keep events certifiable: a perturbation must leave at least
       [min_suffix] observation rounds before its phase ends, or the
       verdict would be vacuously Not_stabilized. The unclamped request
       is an upper bound on any resolved min_suffix, so it is a safe
       margin for every schedule. *)
    let event_margin =
      match min_suffix with
      | Some m -> m
      | None -> Min_suffix.default ~c:spec.Algo.Spec.c
    in
    let seeds = Array.of_list seeds in
    let num_seeds = Array.length seeds in
    let campaign i =
      let schedule =
        Schedule.random ~spec ~adversaries ~phases ~phase_rounds ~events
          ~max_victims ~event_margin ~seed:(i + 1) ()
      in
      let min_suffix =
        Min_suffix.resolve ~c:spec.Algo.Spec.c
          ~rounds:(Schedule.total_rounds schedule)
          min_suffix
      in
      Array.map (fun run_seed -> (schedule, run_seed, Some min_suffix)) seeds
    in
    exec_entries ?metrics ?trace ?spans ?heartbeat ~jobs ~spec
      ~kind:"campaign"
      ~schedule_seed:(fun i -> (i / num_seeds) + 1)
      (Array.concat (List.init campaigns campaign))

  let replay ?metrics ?trace ?spans ?heartbeat ?(jobs = 1)
      ~(spec : 's Algo.Spec.t) ~entries () =
    if entries = [] then invalid_arg "Harness.Chaos.replay: no entries";
    let entries = Array.of_list entries in
    (* Validate every schedule before the pool so a broken corpus fails
       with the offending entry index rather than a worker exception. *)
    Array.iteri
      (fun i (sched, _, _) ->
        try ignore (Schedule.validate ~spec sched)
        with Invalid_argument msg ->
          invalid_arg (Printf.sprintf "Harness.Chaos.replay: entry %d: %s" i msg))
      entries;
    exec_entries ?metrics ?trace ?spans ?heartbeat ~jobs ~spec
      ~kind:"corpus" ~schedule_seed:Fun.id entries

  let pp_aggregate ppf agg =
    Format.fprintf ppf "%d runs, %d/%d phase verdicts recovered"
      (List.length agg.outcomes)
      (agg.phase_verdicts - agg.phase_failures)
      agg.phase_verdicts;
    (match agg.worst_recovery with
    | Some w -> Format.fprintf ppf ", worst recovery %d" w
    | None -> ());
    (match (agg.recovery_p50, agg.recovery_p90) with
    | Some p50, Some p90 ->
      Format.fprintf ppf ", p50 %.0f, p90 %.0f" p50 p90
    | _ -> ());
    List.iter
      (fun o ->
        if not o.recovered then
          List.iter
            (fun (r : Engine.phase_report) ->
              if r.Engine.recovery = None then
                Format.fprintf ppf
                  "@.  FAILED: campaign %d seed %d phase %d (%s, f=[%s])"
                  o.schedule_seed o.run_seed r.Engine.phase r.Engine.adversary
                  (String.concat ";"
                     (List.map string_of_int r.Engine.faulty)))
            o.phases)
      agg.outcomes
end
