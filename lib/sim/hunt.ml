type badness = {
  failed_phases : int;
  worst_ratio : float;
  clamped_events : int;
}

let compare_badness a b =
  let c = Int.compare a.failed_phases b.failed_phases in
  if c <> 0 then c
  else
    let c = Float.compare a.worst_ratio b.worst_ratio in
    if c <> 0 then c else Int.compare a.clamped_events b.clamped_events

let score b =
  (float_of_int b.failed_phases *. 1e6)
  +. (b.worst_ratio *. 1e3)
  +. float_of_int b.clamped_events

type cls = Failed | Exceeds_bound | Near_bound | Clamped

let cls_to_string = function
  | Failed -> "failed"
  | Exceeds_bound -> "exceeds-bound"
  | Near_bound -> "near-bound"
  | Clamped -> "clamped"

let cls_of_string = function
  | "failed" -> Some Failed
  | "exceeds-bound" -> Some Exceeds_bound
  | "near-bound" -> Some Near_bound
  | "clamped" -> Some Clamped
  | _ -> None

let classify ~near_bound b =
  if b.failed_phases > 0 then Some Failed
  else if b.worst_ratio > 1.0 then Some Exceeds_bound
  else if b.worst_ratio >= near_bound then Some Near_bound
  else if b.clamped_events > 0 then Some Clamped
  else None

(* Badness is computable from the phase reports plus the schedule's
   static shape alone — no trace or metrics needed — which is what lets
   a corpus replay rescore entries through the plain chaos harness. *)
let badness_of ~n ~time_bound ~schedule (phases : Engine.phase_report list) =
  let failed_phases =
    List.fold_left
      (fun acc (r : Engine.phase_report) ->
        if r.Engine.recovery = None then acc + 1 else acc)
      0 phases
  in
  let worst_ratio =
    match time_bound with
    | Some bound when bound > 0 ->
      List.fold_left
        (fun acc (r : Engine.phase_report) ->
          match r.Engine.recovery with
          | Some rec_rounds ->
            Float.max acc (float_of_int rec_rounds /. float_of_int bound)
          | None -> acc)
        0.0 phases
    | _ -> 0.0
  in
  { failed_phases; worst_ratio; clamped_events = Schedule.clamped_events ~n schedule }

(* Execute one schedule (streaming) and score it. [min_suffix] is the
   requested value: Engine.run clamps it against the schedule's own
   horizon, so recording the request is enough to replay the run
   bit-identically. *)
let evaluate ?metrics ?(spans = Stdx.Span.disabled) ?min_suffix ~time_bound
    ~(spec : 's Algo.Spec.t) ~schedule ~seed () =
  let o = Engine.run ?metrics ~spans ?min_suffix ~spec ~schedule ~seed () in
  ( badness_of ~n:spec.Algo.Spec.n ~time_bound ~schedule o.Engine.phases,
    o )

let shrink_candidates ~margin ~min_duration (t : 's Schedule.t) =
  let num_phases = List.length t.Schedule.phases in
  let num_events = List.length t.Schedule.events in
  let acc = ref [] in
  let add = function Some s -> acc := s :: !acc | None -> () in
  for i = 0 to num_phases - 1 do
    add (Schedule.drop_phase t i)
  done;
  for i = 0 to num_phases - 1 do
    add (Schedule.halve_duration ~floor:min_duration ~margin t i)
  done;
  for j = 0 to num_events - 1 do
    add (Schedule.drop_event t j)
  done;
  for j = 0 to num_events - 1 do
    add (Schedule.halve_victims t j)
  done;
  List.iteri
    (fun pi (p : 's Schedule.phase) ->
      List.iteri
        (fun fi _ -> add (Schedule.drop_faulty t ~phase:pi ~index:fi))
        p.Schedule.faulty)
    t.Schedule.phases;
  List.rev !acc

(* Greedy descent over the shrink lattice: scan the frontier in step
   order, accept the first candidate that still classifies as [cls],
   restart from the smaller schedule. Each accepted step strictly
   decreases [Schedule.size], so the descent terminates even without
   the execution budget. Only executed candidates count against
   [budget] — structurally invalid ones are free. *)
let shrink ~eval ~near_bound ~cls ~margin ~min_duration ~budget ~spec schedule
    b0 =
  let steps = ref 0 and kept = ref 0 in
  let cur = ref schedule and cur_b = ref b0 in
  let out_of_budget = ref false in
  let improved = ref true in
  while !improved && not !out_of_budget do
    improved := false;
    (try
       List.iter
         (fun cand ->
           if !steps >= budget then begin
             out_of_budget := true;
             raise Exit
           end;
           match
             try Some (Schedule.validate ~spec cand)
             with Invalid_argument _ -> None
           with
           | None -> ()
           | Some cand ->
             incr steps;
             let b = eval cand in
             if classify ~near_bound b = Some cls then begin
               cur := cand;
               cur_b := b;
               incr kept;
               improved := true;
               raise Exit
             end)
         (shrink_candidates ~margin ~min_duration !cur)
     with Exit -> ())
  done;
  (!cur, !cur_b, !steps, !kept)

module Config = struct
  type t = {
    trials : int;
    phases : int;
    phase_rounds : int;
    events : int;
    max_victims : int;
    mutations : int;
    seed : int;
    run_seed : int;
    time_bound : int option;
    near_bound : float;
    shrink_budget : int;
    min_suffix : int option;
    jobs : int;
  }

  let default =
    {
      trials = 64;
      phases = 3;
      phase_rounds = 400;
      events = 2;
      max_victims = 2;
      mutations = 2;
      seed = 1;
      run_seed = 1;
      time_bound = None;
      near_bound = 0.9;
      shrink_budget = 256;
      min_suffix = None;
      jobs = 1;
    }

  let with_trials trials t = { t with trials }
  let with_phases phases t = { t with phases }
  let with_phase_rounds phase_rounds t = { t with phase_rounds }
  let with_events events t = { t with events }
  let with_max_victims max_victims t = { t with max_victims }
  let with_seed seed t = { t with seed }
  let with_run_seed run_seed t = { t with run_seed }
  let with_time_bound time_bound t = { t with time_bound = Some time_bound }
  let with_near_bound near_bound t = { t with near_bound }
  let with_shrink_budget shrink_budget t = { t with shrink_budget }
  let with_min_suffix min_suffix t = { t with min_suffix = Some min_suffix }
  let with_jobs jobs t = { t with jobs }
end

type 's hit = {
  trial : int;
  gen_seed : int;
  mut_seed : int;
  run_seed : int;
  cls : cls;
  found : badness;
  badness : badness;
  schedule : 's Schedule.t;
  original_size : int;
  size : int;
  shrink_steps : int;
  shrink_kept : int;
}

type 's report = {
  hits : 's hit list;
  trials : int;
  executions : int;
  min_suffix : int;
  time_bound : int option;
  worst : 's hit option;
}

let run ?metrics ?trace ?spans ?heartbeat ?(config = Config.default)
    ~(spec : 's Algo.Spec.t) ~adversaries () =
  let {
    Config.trials;
    phases;
    phase_rounds;
    events;
    max_victims;
    mutations;
    seed;
    run_seed;
    time_bound;
    near_bound;
    shrink_budget;
    min_suffix;
    jobs;
  } =
    config
  in
  if trials < 1 then invalid_arg "Hunt.run: trials < 1";
  (match time_bound with
  | Some b when b < 1 -> invalid_arg "Hunt.run: time_bound < 1"
  | _ -> ());
  if adversaries = [] then invalid_arg "Hunt.run: no adversaries";
  if not (near_bound > 0.0) then invalid_arg "Hunt.run: near_bound <= 0";
  if shrink_budget < 0 then invalid_arg "Hunt.run: shrink_budget < 0";
  if mutations < 0 then invalid_arg "Hunt.run: mutations < 0";
  let n = spec.Algo.Spec.n and c = spec.Algo.Spec.c in
  (* The requested min-suffix doubles as the event margin: a
     perturbation must leave that many certifiable rounds before its
     phase ends or the verdict is vacuous (same reasoning as
     [Harness.Chaos.run]). The engine clamps the request per schedule,
     so recording it is enough to replay any run bit-identically. *)
  let req_suffix =
    match min_suffix with Some m -> m | None -> Min_suffix.default ~c
  in
  let margin = req_suffix in
  (* Shrunk phases must stay long enough for a genuine recovery to be
     observed — otherwise shrinking would converge on vacuous failures
     that say nothing about the algorithm. *)
  let min_duration = Option.value time_bound ~default:0 + margin + 2 in
  (* Every per-trial seed pair is drawn from the master stream before
     the pool starts, generation seed first: trial i is fully keyed by
     seeds.(2i) and seeds.(2i + 1), so any [jobs] yields a bit-identical
     hunt. Its schedule is built inside its own cell, so a hunt holds no
     schedule it is not running. *)
  let master = Stdx.Rng.create seed in
  let seeds = Array.init (2 * trials) (fun _ -> Stdx.Rng.bits master) in
  let schedule_of ~gen_seed ~mut_seed =
    let base =
      Schedule.random ~spec ~adversaries ~phases ~phase_rounds ~events
        ~max_victims ~event_margin:margin ~seed:gen_seed ()
    in
    let mrng = Stdx.Rng.create mut_seed in
    let steps = Stdx.Rng.int mrng (mutations + 1) in
    let rec go s i =
      if i = 0 then s
      else
        go
          (Schedule.mutate ~spec ~adversaries ~max_victims ~event_margin:margin
             ~rng:mrng s)
          (i - 1)
    in
    go base steps
  in
  let results =
    Campaign.exec ?metrics ?trace ?spans ?heartbeat ~jobs ~prefix:"hunt" ~n
      ~horizon:(Campaign.Of_result (fun (_, _, horizon) -> horizon))
      ~label:(fun i -> "trial " ^ string_of_int i)
      trials
      (fun cell trial ->
        let { Campaign.metrics = cell_m; tracer = cell_tr; spans = cell_sp } =
          cell
        in
        let gen_seed = seeds.(2 * trial)
        and mut_seed = seeds.((2 * trial) + 1) in
        let sched = schedule_of ~gen_seed ~mut_seed in
        Stdx.Span.with_ cell_sp "hunt.trial" @@ fun () ->
        let execs = ref 0 in
        let rounds = ref 0 in
        let eval s =
          incr execs;
          let b, o =
            evaluate ?metrics:cell_m ~spans:cell_sp
              ~min_suffix:req_suffix ~time_bound ~spec ~schedule:s
              ~seed:run_seed ()
          in
          rounds := !rounds + o.Engine.rounds_simulated;
          b
        in
        let b0 = eval sched in
        Option.iter
          (fun m ->
            Stdx.Metrics.record m
              [
                Observe ("hunt.badness", score b0);
                Incr ("hunt.schedules_tried", 1);
              ])
          cell_m;
        let hit =
          match classify ~near_bound b0 with
          | None ->
            if Trace.seams_on cell_tr then
              Trace.emit cell_tr
                (Trace.Hunt_trial
                   { trial; seed = gen_seed; score = score b0; hit = false });
            None
          | Some cls ->
            Option.iter
              (fun hb -> Stdx.Heartbeat.hit hb (cls_to_string cls))
              heartbeat;
            if Trace.seams_on cell_tr then
              Trace.emit cell_tr
                (Trace.Hunt_trial
                   { trial; seed = gen_seed; score = score b0; hit = true });
            let shrunk, b, steps, kept =
              Stdx.Span.with_ cell_sp "hunt.shrink" (fun () ->
                  shrink ~eval ~near_bound ~cls ~margin ~min_duration
                    ~budget:shrink_budget ~spec sched b0)
            in
            Option.iter
              (fun m ->
                Stdx.Metrics.record m
                  (Incr ("hunt.hits", 1)
                  ::
                  (if steps > 0 then [ Incr ("hunt.shrink_steps", steps) ]
                   else [])))
              cell_m;
            if Trace.seams_on cell_tr then
              Trace.emit cell_tr
                (Trace.Hunt_shrink
                   {
                     trial;
                     steps;
                     kept;
                     size = Schedule.size shrunk;
                     score = score b;
                   });
            Some
              {
                trial;
                gen_seed;
                mut_seed;
                run_seed;
                cls;
                found = b0;
                badness = b;
                schedule = shrunk;
                original_size = Schedule.size sched;
                size = Schedule.size shrunk;
                shrink_steps = steps;
                shrink_kept = kept;
              }
        in
        ((hit, !execs, Schedule.total_rounds sched), !rounds))
  in
  let hits =
    List.filter_map (fun (hit, _, _) -> hit) (Array.to_list results)
  in
  let executions = Array.fold_left (fun acc (_, e, _) -> acc + e) 0 results in
  let worst =
    List.fold_left
      (fun acc h ->
        match acc with
        | None -> Some h
        | Some w ->
          if compare_badness h.badness w.badness > 0 then Some h else acc)
      None hits
  in
  { hits; trials; executions; min_suffix = req_suffix; time_bound; worst }

module Corpus = struct
  type 's entry = {
    label : string;
    n : int;
    f : int;
    c : int;
    hunt_seed : int;
    trial : int;
    run_seed : int;
    min_suffix : int;
    time_bound : int option;
    cls : cls;
    badness : badness;
    size : int;
    shrink_steps : int;
    shrink_kept : int;
    schedule : 's Schedule.t;
  }

  let of_report ~(spec : 's Algo.Spec.t) ~hunt_seed (r : 's report) =
    List.map
      (fun (h : 's hit) ->
        {
          label = spec.Algo.Spec.name;
          n = spec.Algo.Spec.n;
          f = spec.Algo.Spec.f;
          c = spec.Algo.Spec.c;
          hunt_seed;
          trial = h.trial;
          run_seed = h.run_seed;
          min_suffix = r.min_suffix;
          time_bound = r.time_bound;
          cls = h.cls;
          badness = h.badness;
          size = h.size;
          shrink_steps = h.shrink_steps;
          shrink_kept = h.shrink_kept;
          schedule = h.schedule;
        })
      r.hits

  let entry_to_json (e : 's entry) =
    Printf.sprintf
      "{\"kind\":\"hunt-hit\",\"label\":\"%s\",\"n\":%d,\"f\":%d,\"c\":%d,\"hunt_seed\":%d,\"trial\":%d,\"run_seed\":%d,\"min_suffix\":%d,\"time_bound\":%s,\"class\":\"%s\",\"failed_phases\":%d,\"worst_ratio\":%.17g,\"clamped_events\":%d,\"score\":%.17g,\"size\":%d,\"shrink_steps\":%d,\"shrink_kept\":%d,\"schedule\":%s}"
      (Stdx.Json.escape e.label) e.n e.f e.c e.hunt_seed e.trial e.run_seed
      e.min_suffix
      (match e.time_bound with Some b -> string_of_int b | None -> "null")
      (cls_to_string e.cls) e.badness.failed_phases e.badness.worst_ratio
      e.badness.clamped_events (score e.badness) e.size e.shrink_steps
      e.shrink_kept
      (Schedule.to_json e.schedule)

  let entry_of_json ~adversaries j =
    let open Stdx.Json in
    (match field_opt j "kind" with
    | Some (String "hunt-hit") -> ()
    | _ ->
      raise (Parse_error "corpus entry: expected \"kind\":\"hunt-hit\""));
    let cls_name = to_string "class" (field j "class") in
    let cls =
      match cls_of_string cls_name with
      | Some cls -> cls
      | None ->
        raise
          (Parse_error
             (Printf.sprintf
                "corpus entry: unknown class %S (known: failed, \
                 exceeds-bound, near-bound, clamped)"
                cls_name))
    in
    {
      label = to_string "label" (field j "label");
      n = to_int "n" (field j "n");
      f = to_int "f" (field j "f");
      c = to_int "c" (field j "c");
      hunt_seed = to_int "hunt_seed" (field j "hunt_seed");
      trial = to_int "trial" (field j "trial");
      run_seed = to_int "run_seed" (field j "run_seed");
      min_suffix = to_int "min_suffix" (field j "min_suffix");
      time_bound = to_opt_int "time_bound" (field j "time_bound");
      cls;
      badness =
        {
          failed_phases = to_int "failed_phases" (field j "failed_phases");
          worst_ratio = to_float "worst_ratio" (field j "worst_ratio");
          clamped_events = to_int "clamped_events" (field j "clamped_events");
        };
      size = to_int "size" (field j "size");
      shrink_steps = to_int "shrink_steps" (field j "shrink_steps");
      shrink_kept = to_int "shrink_kept" (field j "shrink_kept");
      schedule = Schedule.of_json_value ~adversaries (field j "schedule");
    }

  let write oc entries =
    List.iter
      (fun e ->
        output_string oc (entry_to_json e);
        output_char oc '\n')
      entries

  let read ~adversaries ic =
    let rec go acc lines =
      match lines () with
      | Seq.Nil -> Ok (List.rev acc)
      | Seq.Cons ((lineno, line), rest) -> (
        match entry_of_json ~adversaries (Stdx.Json.parse line) with
        | e -> go (e :: acc) rest
        | exception Stdx.Json.Parse_error msg ->
          Error (Printf.sprintf "line %d: %s" lineno msg))
    in
    go [] (Stdx.Json.lines (In_channel.input_all ic))

  let replay ?metrics ?trace ?spans ?heartbeat ?jobs
      ~(spec : 's Algo.Spec.t) ~entries () =
    List.iteri
      (fun i e ->
        if
          e.n <> spec.Algo.Spec.n || e.f <> spec.Algo.Spec.f
          || e.c <> spec.Algo.Spec.c
        then
          invalid_arg
            (Printf.sprintf
               "Hunt.Corpus.replay: entry %d is for (n=%d, f=%d, c=%d) but \
                the spec is (n=%d, f=%d, c=%d)"
               i e.n e.f e.c spec.Algo.Spec.n spec.Algo.Spec.f
               spec.Algo.Spec.c))
      entries;
    let chaos_entries =
      List.map (fun e -> (e.schedule, e.run_seed, Some e.min_suffix)) entries
    in
    let agg =
      Harness.Chaos.replay ?metrics ?trace ?spans ?heartbeat ?jobs ~spec
        ~entries:chaos_entries ()
    in
    List.map2
      (fun e (o : Harness.Chaos.outcome) ->
        let b =
          badness_of ~n:spec.Algo.Spec.n ~time_bound:e.time_bound
            ~schedule:e.schedule o.Harness.Chaos.phases
        in
        (e, b, compare_badness b e.badness = 0))
      entries agg.Harness.Chaos.outcomes
end
