(* countctl: command-line front end for planning, running and verifying
   synchronous counters.

     dune exec bin/countctl.exe -- plan --levels 4:1,3:3 --modulus 10
     dune exec bin/countctl.exe -- run --levels 4:1,3:3 --modulus 10 \
         --faulty 0,5,9 --adversary split-brain --rounds 4000 --seed 7,8,9
     dune exec bin/countctl.exe -- verify --algorithm leader:4:3 --jobs 4
     dune exec bin/countctl.exe -- adversaries *)

open Cmdliner

let parse_levels s =
  try
    Ok
      (List.map
         (fun part ->
           match String.split_on_char ':' part with
           | [ k; f ] ->
             { Counting.Plan.k = int_of_string k; big_f = int_of_string f }
           | _ -> failwith "bad")
         (String.split_on_char ',' s))
  with _ -> Error (`Msg "levels must look like 4:1,3:3 (k:F pairs, bottom-up)")

let levels_arg =
  let levels_conv = Arg.conv ~docv:"LEVELS" (parse_levels, fun ppf _ -> Format.fprintf ppf "<levels>") in
  Arg.(
    value
    & opt (some levels_conv) None
    & info [ "levels" ] ~docv:"K:F,K:F,..."
        ~doc:"Boosting schedule, bottom-up: one k:F pair per level.")

let corollary_f_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "corollary1" ] ~docv:"F"
        ~doc:"Use the Corollary 1 schedule for resilience $(docv).")

let modulus_arg =
  Arg.(
    value & opt int 2
    & info [ "modulus"; "c" ] ~docv:"C" ~doc:"Counter modulus (c-counting).")

let schedule levels corollary1 =
  match (levels, corollary1) with
  | Some l, None -> Ok l
  | None, Some f -> Ok (Counting.Plan.corollary1_levels ~f)
  | None, None -> Ok Counting.Plan.figure2_levels
  | Some _, Some _ -> Error (`Msg "give either --levels or --corollary1")

let plan_tower levels corollary1 modulus =
  match schedule levels corollary1 with
  | Error e -> Error e
  | Ok l -> (
    match Counting.Plan.plan_tower ~target_c:modulus l with
    | Ok tower -> Ok tower
    | Error msg -> Error (`Msg msg))

(* ------------------------------------------------------------------ *)

let plan_cmd =
  let doc = "Plan a recursive construction and print its exact parameters." in
  let run levels corollary1 modulus =
    match plan_tower levels corollary1 modulus with
    | Error (`Msg m) -> `Error (false, m)
    | Ok tower ->
      print_string (Counting.Build.describe tower);
      let top = Counting.Plan.top tower in
      Printf.printf
        "total: A(%d, %d) counting mod %d, T <= %d rounds, %d state bits/node\n"
        top.Counting.Plan.n top.Counting.Plan.big_f modulus
        top.Counting.Plan.time_bound top.Counting.Plan.state_bits;
      `Ok ()
  in
  Cmd.v (Cmd.info "plan" ~doc)
    Term.(ret (const run $ levels_arg $ corollary_f_arg $ modulus_arg))

let adversary_of_name name =
  List.find_opt
    (fun a -> Sim.Adversary.name a = name)
    (Sim.Adversary.standard_suite ()
    @ [ Sim.Adversary.greedy_confusion ~pool:2 () ])

(* Small explicit algorithms nameable on the command line (verify,
   hunt --algorithm): trivial:C and leader:N:C. *)
let parse_algo s =
  match String.split_on_char ':' s with
  | [ "trivial"; c ] -> (
    match int_of_string_opt c with
    | Some c when c >= 1 ->
      Some (Algo.Spec.Packed (Counting.Trivial.single ~c))
    | _ -> None)
  | [ "leader"; n; c ] -> (
    match (int_of_string_opt n, int_of_string_opt c) with
    | Some n, Some c when n >= 1 && c >= 1 ->
      Some (Algo.Spec.Packed (Counting.Trivial.follow_leader ~n ~c))
    | _ -> None)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Flags shared by the sweep-shaped subcommands (run, verify, chaos, hunt):
   horizon, seeds, min-suffix, worker domains, telemetry sinks.
   Defaults that depend on the subcommand (rounds, seeds) stay optional
   and are resolved there. *)

type sweep_opts = {
  rounds : int option;
  seeds : int list option;
  min_suffix : int option;
  jobs : int;
  trace : string option;
  metrics : bool;
  spans : bool;
  heartbeat : float option;
      (* emission interval in seconds; None = no heartbeat stream *)
  heartbeat_file : string;
}

let bad_min_suffix opts =
  match opts.min_suffix with Some m -> m < 1 | None -> false

(* Up-front checks shared by the simulating subcommands (run, chaos,
   hunt). The engine runs on packed state codes only, so a tower whose
   states do not fit one int code — it has no codec — is refused here
   with its bit count; [plan] still describes it. *)
let sim_error (spec : _ Algo.Spec.t) opts =
  if Option.is_none spec.Algo.Spec.codec then
    Some
      (Printf.sprintf
         "A(%d, %d) needs %d state bits per node, more than one packed \
          state code holds (62), so it cannot be simulated; `countctl \
          plan' still describes it"
         spec.Algo.Spec.n spec.Algo.Spec.f spec.Algo.Spec.state_bits)
  else if bad_min_suffix opts then Some "--min-suffix must be >= 1"
  else
    match opts.rounds with
    | Some r when r < 1 -> Some "--rounds must be >= 1"
    | _ -> None

let sweep_flags =
  let rounds_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "rounds" ] ~docv:"N"
          ~doc:
            "Rounds to simulate per run (default: 4000 for run, \
             max(8c, 128) for verify's cross-check).")
  in
  let seeds_arg =
    let parse s =
      try
        match List.map int_of_string (String.split_on_char ',' s) with
        | [] -> Error (`Msg "need at least one seed")
        | seeds -> Ok seeds
      with _ -> Error (`Msg "seeds must be a comma-separated int list")
    in
    let seeds_conv =
      Arg.conv ~docv:"SEEDS"
        (parse, fun ppf _ -> Format.fprintf ppf "<seeds>")
    in
    Arg.(
      value
      & opt (some seeds_conv) None
      & info [ "seed"; "seeds" ] ~docv:"SEEDS"
          ~doc:
            "Comma-separated PRNG seeds, one independent run each \
             (default: 1 for run, 1,2,3,4,5 for verify's cross-check).")
  in
  let min_suffix_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "min-suffix" ] ~docv:"K"
          ~doc:
            "Clean counting rounds required before declaring \
             stabilisation (default: the Sim.Min_suffix contract, \
             max(2c, 16) capped by rounds/4 and floored at c).")
  in
  let jobs_arg =
    Arg.(
      value
      & opt int (Stdx.Pool.recommended_jobs ())
      & info [ "jobs"; "j" ] ~docv:"J"
          ~doc:
            "Worker domains for independent runs and faulty-set checks \
             (default: the machine's recommended domain count). Results \
             are identical at any J >= 1.")
  in
  let trace_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Write a structured JSONL event trace (phase starts, \
             corruption, detector resets, verdicts) to $(docv); analyse \
             it with `countctl report'.")
  in
  let metrics_arg =
    Arg.(
      value & flag
      & info [ "metrics" ]
          ~doc:
            "Collect engine/harness counters and histograms and print \
             them as a table after the run.")
  in
  let spans_arg =
    Arg.(
      value & flag
      & info [ "spans" ]
          ~doc:
            "Attribute time to engine.craft/step/detect, hunt \
             trial/shrink and pool busy/claim/idle spans (span.*_s \
             histograms under --metrics, Span events under --trace). \
             Sampled; outcomes are bit-identical with or without it.")
  in
  let heartbeat_arg =
    let parse s =
      match float_of_string_opt s with
      | Some v when Float.is_finite v && v >= 0.0 -> Ok v
      | _ -> Error (`Msg "heartbeat interval must be a finite number >= 0")
    in
    let secs_conv =
      Arg.conv ~docv:"SECS" (parse, fun ppf v -> Format.fprintf ppf "%g" v)
    in
    Arg.(
      value
      & opt (some secs_conv) None
      & info [ "heartbeat" ] ~docv:"SECS"
          ~doc:
            "Append a progress heartbeat line (JSONL) to the heartbeat \
             file at most every $(docv) seconds, plus one terminal \
             'final' line; follow it live with `countctl watch'.")
  in
  let heartbeat_file_arg =
    Arg.(
      value
      & opt string "heartbeat.jsonl"
      & info [ "heartbeat-file" ] ~docv:"FILE"
          ~doc:
            "Heartbeat stream destination (appended, so chained \
             campaigns extend one stream); default heartbeat.jsonl.")
  in
  Term.(
    ret
      (const (fun rounds seeds min_suffix jobs trace metrics spans heartbeat
                  heartbeat_file ->
           if jobs < 1 then `Error (false, "--jobs must be >= 1")
           else
             `Ok
               {
                 rounds;
                 seeds;
                 min_suffix;
                 jobs;
                 trace;
                 metrics;
                 spans;
                 heartbeat;
                 heartbeat_file;
               })
      $ rounds_arg $ seeds_arg $ min_suffix_arg $ jobs_arg $ trace_arg
      $ metrics_arg $ spans_arg $ heartbeat_arg $ heartbeat_file_arg))

(* Telemetry plumbing shared by run/verify/chaos/hunt: a metrics
   registry when --metrics was given, a JSONL sink (prefixed with one
   [Meta] header line) when --trace was given, a heartbeat stream
   (appended to --heartbeat-file, terminal line owned here) when
   --heartbeat was given, and the metrics table printed after the
   wrapped action returns. Both files are opened before any work
   starts; one that cannot be opened ends the command with a
   [countctl: cannot open ...] error. *)
let with_telemetry ~meta opts
    (f :
      metrics:Stdx.Metrics.t option ->
      trace:Sim.Trace.t option ->
      spans:bool ->
      heartbeat:Stdx.Heartbeat.t option ->
      'a) =
  let open_or_exit open_ path =
    try open_ path
    with Sys_error msg ->
      Printf.eprintf "countctl: cannot open %s\n%!" msg;
      exit Cmd.Exit.some_error
  in
  let hb_oc =
    Option.map
      (fun interval_s ->
        ( interval_s,
          open_or_exit
            (open_out_gen [ Open_append; Open_creat ] 0o644)
            opts.heartbeat_file ))
      opts.heartbeat
  in
  let trace_oc = Option.map (open_or_exit open_out) opts.trace in
  let metrics = if opts.metrics then Some (Stdx.Metrics.create ()) else None in
  let go ~trace ~heartbeat =
    (match trace with
    | Some tr when Sim.Trace.seams_on tr -> Sim.Trace.emit tr meta
    | _ -> ());
    let r = f ~metrics ~trace ~spans:opts.spans ~heartbeat in
    (match metrics with
    | Some m ->
      print_string
        (Stdx.Table.to_string (Stdx.Metrics.to_table (Stdx.Metrics.snapshot m)));
      print_newline ()
    | None -> ());
    r
  in
  let with_heartbeat k =
    match hb_oc with
    | None -> k None
    | Some (interval_s, oc) ->
      let label =
        match meta with Sim.Trace.Meta { label; _ } -> label | _ -> ""
      in
      let hb = Stdx.Heartbeat.create ~label ~interval_s ~out:oc () in
      Fun.protect
        ~finally:(fun () ->
          (* The harnesses never finish the stream themselves, so a
             crash still leaves a terminal line behind. *)
          Stdx.Heartbeat.finish hb;
          close_out oc)
        (fun () -> k (Some hb))
  in
  with_heartbeat @@ fun heartbeat ->
  match trace_oc with
  | None -> go ~trace:None ~heartbeat
  | Some oc ->
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () -> go ~trace:(Some (Sim.Trace.jsonl oc)) ~heartbeat)

let faulty_arg =
  let parse s =
    try
      Ok
        (if s = "" then []
         else List.map int_of_string (String.split_on_char ',' s))
    with _ -> Error (`Msg "faulty must be a comma-separated id list")
  in
  let ids_conv = Arg.conv ~docv:"IDS" (parse, fun ppf _ -> Format.fprintf ppf "<ids>") in
  Arg.(
    value & opt ids_conv []
    & info [ "faulty" ] ~docv:"IDS" ~doc:"Byzantine node ids, e.g. 0,5,9.")

let run_cmd =
  let doc = "Simulate a planned counter under an adversary." in
  let adversary_arg =
    Arg.(
      value
      & opt string "random-equivocate"
      & info [ "adversary" ] ~docv:"NAME" ~doc:"Adversary strategy name.")
  in
  let full_trace_arg =
    Arg.(
      value & flag
      & info [ "full-trace" ]
          ~doc:
            "Simulate the whole horizon instead of early-exiting once the \
             verdict is decided (verdicts are identical; see DESIGN.md).")
  in
  let run levels corollary1 modulus faulty adversary opts full_trace =
    match plan_tower levels corollary1 modulus with
    | Error (`Msg m) -> `Error (false, m)
    | Ok tower -> (
      let (Algo.Spec.Packed spec) = Counting.Build.tower tower in
      let faulty_error =
        match
          Sim.Schedule.validate_faulty ~who:"--faulty" ~n:spec.Algo.Spec.n
            ~f:spec.Algo.Spec.f faulty
        with
        | _ -> None
        | exception Invalid_argument msg -> Some msg
      in
      match (adversary_of_name adversary, faulty_error, sim_error spec opts) with
      | None, _, _ ->
        `Error (false, "unknown adversary; see `countctl adversaries'")
      | Some _, Some msg, _ | Some _, None, Some msg -> `Error (false, msg)
      | Some adversary, None, None ->
        let rounds = Option.value opts.rounds ~default:4000 in
        let seeds = Option.value opts.seeds ~default:[ 1 ] in
        let mode =
          if full_trace then Sim.Engine.Full_horizon else Sim.Engine.Streaming
        in
        let meta =
          Sim.Trace.Meta
            {
              label = spec.Algo.Spec.name;
              n = spec.Algo.Spec.n;
              f = spec.Algo.Spec.f;
              c = spec.Algo.Spec.c;
              time_bound =
                Some (Counting.Plan.top tower).Counting.Plan.time_bound;
            }
        in
        with_telemetry ~meta opts @@ fun ~metrics ~trace ~spans ~heartbeat ->
        (* One independent engine run per seed, spread over the pool;
           output order follows the seed list regardless of --jobs, and
           per-seed telemetry is merged in seed order, as in the harness
           sweeps. *)
        let seed_arr = Array.of_list seeds in
        let label i =
          Printf.sprintf "%s f=[%s] seed=%d"
            (Sim.Adversary.name adversary)
            (String.concat ";" (List.map string_of_int faulty))
            seed_arr.(i)
        in
        let results =
          Sim.Campaign.exec ?metrics ?trace ~spans ?heartbeat ~jobs:opts.jobs
            ~prefix:"run" ~n:spec.Algo.Spec.n
            ~horizon:(fun _ -> rounds)
            ~label (Array.length seed_arr)
            (fun cell i ->
              let o =
                Sim.Engine.run ?metrics:cell.Sim.Campaign.metrics
                  ~tracer:cell.Sim.Campaign.tracer
                  ~spans:cell.Sim.Campaign.spans ~mode
                  ?min_suffix:opts.min_suffix ~spec ~adversary ~faulty ~rounds
                  ~seed:seed_arr.(i) ()
              in
              (o, o.Sim.Engine.rounds_simulated))
        in
        let outcomes = List.combine seeds (Array.to_list results) in
        Printf.printf "%s\n" spec.Algo.Spec.name;
        List.iter
          (fun (seed, outcome) ->
            if List.length seeds > 1 then Printf.printf "seed %d:\n" seed;
            (match outcome.Sim.Engine.verdict with
            | Sim.Stabilise.Stabilized t ->
              Printf.printf "stabilised at round %d (bound %d)\n" t
                (Counting.Plan.top tower).Counting.Plan.time_bound
            | Sim.Stabilise.Not_stabilized ->
              Printf.printf "did not stabilise within %d rounds\n" rounds;
              List.iter
                (fun (r, outs) ->
                  Printf.printf "  round %d outputs: %s\n" r
                    (String.concat " "
                       (Array.to_list (Array.map string_of_int outs))))
                outcome.Sim.Engine.recent_outputs);
            if outcome.Sim.Engine.early_exit then
              Printf.printf "simulated %d of %d rounds (early exit)\n"
                outcome.Sim.Engine.rounds_simulated rounds)
          outcomes;
        `Ok ())
  in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(
      ret
        (const run $ levels_arg $ corollary_f_arg $ modulus_arg $ faulty_arg
       $ adversary_arg $ sweep_flags $ full_trace_arg))

let verify_cmd =
  let doc =
    "Model-check a small counter exactly (trivial:C, leader:N:C)."
  in
  let algo_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "algorithm" ] ~docv:"SPEC"
          ~doc:"Algorithm: trivial:C or leader:N:C.")
  in
  let run algo opts =
    match parse_algo algo with
    | None -> `Error (false, "unknown algorithm spec")
    | Some _ when bad_min_suffix opts ->
      `Error (false, "--min-suffix must be >= 1")
    | Some (Algo.Spec.Packed spec) -> (
      let period = spec.Algo.Spec.c in
      let rounds = Option.value opts.rounds ~default:(max (8 * period) 128) in
      (* The cross-check's sweep needs a horizon that can witness one
         full mod-c period (Sim.Min_suffix.resolve); reject a shorter
         one before the model check runs. *)
      if rounds < period then
        `Error
          ( false,
            Printf.sprintf
              "--rounds must be >= %d (one full mod-%d counting period)"
              period period )
      else
      match Mc.Checker.check ~jobs:opts.jobs spec with
      | Ok report ->
        Printf.printf "VERIFIED: exact worst-case stabilisation T = %d\n"
          report.Mc.Checker.worst_stabilisation;
        (* Cross-check the exact bound against the streaming simulator:
           worst observed stabilisation over the hostile suite must not
           exceed the model checker's T. *)
        let config =
          let open Sim.Harness.Config in
          let c = default |> with_rounds rounds |> with_jobs opts.jobs in
          let c =
            match opts.seeds with Some s -> with_seeds s c | None -> c
          in
          match opts.min_suffix with
          | Some m -> with_min_suffix m c
          | None -> c
        in
        let meta =
          Sim.Trace.Meta
            {
              label = spec.Algo.Spec.name;
              n = spec.Algo.Spec.n;
              f = spec.Algo.Spec.f;
              c = spec.Algo.Spec.c;
              time_bound = Some report.Mc.Checker.worst_stabilisation;
            }
        in
        let agg =
          with_telemetry ~meta opts
            (fun ~metrics ~trace ~spans ~heartbeat ->
              Sim.Harness.run ?metrics ?trace ~spans ?heartbeat ~config ~spec
                ~adversaries:(Sim.Adversary.hostile_suite ())
                ())
        in
        (match agg.Sim.Harness.worst with
        | Some w when w <= report.Mc.Checker.worst_stabilisation ->
          Printf.printf
            "simulation cross-check: worst observed %d <= T (%d runs, \
             %d/%d rounds simulated)\n"
            w
            (List.length agg.Sim.Harness.outcomes)
            agg.Sim.Harness.total_rounds_simulated
            (List.length agg.Sim.Harness.outcomes * rounds)
        | Some w ->
          Printf.printf
            "WARNING: simulation observed stabilisation at %d > exact T %d\n"
            w report.Mc.Checker.worst_stabilisation
        | None ->
          Printf.printf
            "WARNING: some simulated run did not stabilise within %d rounds\n"
            rounds);
        `Ok ()
      | Error f ->
        Printf.printf "%s\n" (Mc.Checker.check_to_string (Error f));
        `Ok ())
  in
  Cmd.v (Cmd.info "verify" ~doc) Term.(ret (const run $ algo_arg $ sweep_flags))

let chaos_cmd =
  let doc =
    "Run a chaos campaign: random time-varying fault schedules (phases \
     with their own faulty set and adversary, plus transient state \
     corruption), reporting per-phase re-stabilisation and recovery \
     times. Exits non-zero if any phase fails to re-stabilise."
  in
  let campaigns_arg =
    Arg.(
      value & opt int 5
      & info [ "campaigns" ] ~docv:"N"
          ~doc:
            "Random schedules per campaign, generated from schedule seeds \
             1..$(docv); each is run once per --seeds entry.")
  in
  let phases_arg =
    Arg.(
      value & opt int 3
      & info [ "phases" ] ~docv:"P"
          ~doc:"Phases per schedule (each with its own faulty set/adversary).")
  in
  let events_arg =
    Arg.(
      value & opt int 2
      & info [ "events" ] ~docv:"E"
          ~doc:"Transient corruption events per schedule.")
  in
  let max_victims_arg =
    Arg.(
      value & opt int 2
      & info [ "max-victims" ] ~docv:"K"
          ~doc:"Max correct nodes corrupted per transient event.")
  in
  let run levels corollary1 modulus campaigns phases events max_victims opts =
    match plan_tower levels corollary1 modulus with
    | Error (`Msg m) -> `Error (false, m)
    | Ok tower ->
      let (Algo.Spec.Packed spec) = Counting.Build.tower tower in
      match sim_error spec opts with
      | Some msg -> `Error (false, msg)
      | None ->
      if campaigns < 1 then `Error (false, "--campaigns must be >= 1")
      else if phases < 1 then `Error (false, "--phases must be >= 1")
      else if events < 0 then `Error (false, "--events must be >= 0")
      else if max_victims < 1 then `Error (false, "--max-victims must be >= 1")
      else begin
        (* --rounds is the base phase duration here: each phase lasts
           rounds..2*rounds-1, so a schedule's horizon is phase-count
           dependent rather than fixed. *)
        let phase_rounds = Option.value opts.rounds ~default:600 in
        let run_seeds = opts.seeds in
        let min_suffix = opts.min_suffix in
        let jobs = opts.jobs in
        let config =
          let open Sim.Harness.Chaos.Config in
          let c =
            default |> with_campaigns campaigns |> with_phases phases
            |> with_events events |> with_max_victims max_victims
            |> with_phase_rounds phase_rounds |> with_jobs jobs
          in
          let c = match run_seeds with Some s -> with_seeds s c | None -> c in
          match min_suffix with Some m -> with_min_suffix m c | None -> c
        in
        let adversaries =
          Sim.Adversary.standard_suite ()
          @ [ Sim.Adversary.greedy_confusion ~pool:2 () ]
        in
        let meta =
          Sim.Trace.Meta
            {
              label = spec.Algo.Spec.name;
              n = spec.Algo.Spec.n;
              f = spec.Algo.Spec.f;
              c = spec.Algo.Spec.c;
              time_bound =
                Some (Counting.Plan.top tower).Counting.Plan.time_bound;
            }
        in
        let analyse () =
          with_telemetry ~meta opts
          @@ fun ~metrics ~trace ~spans ~heartbeat ->
          let agg =
            Sim.Harness.Chaos.run ?metrics ?trace ~spans ?heartbeat ~config
              ~spec ~adversaries ()
          in
        Printf.printf "%s\n" spec.Algo.Spec.name;
        let last_schedule = ref (-1) in
        List.iter
          (fun (o : Sim.Harness.Chaos.outcome) ->
            if o.Sim.Harness.Chaos.schedule_seed <> !last_schedule then begin
              last_schedule := o.Sim.Harness.Chaos.schedule_seed;
              Printf.printf "campaign %d: %s\n"
                o.Sim.Harness.Chaos.schedule_seed o.Sim.Harness.Chaos.schedule
            end;
            (match o.Sim.Harness.Chaos.worst_recovery with
            | Some w ->
              Printf.printf "  seed %d: recovered every phase, worst %d rounds"
                o.Sim.Harness.Chaos.run_seed w
            | None ->
              Printf.printf "  seed %d: FAILED to re-stabilise"
                o.Sim.Harness.Chaos.run_seed);
            Printf.printf " (%d/%d rounds simulated)\n"
              o.Sim.Harness.Chaos.rounds_simulated o.Sim.Harness.Chaos.horizon)
          agg.Sim.Harness.Chaos.outcomes;
        Format.printf "%a@." Sim.Harness.Chaos.pp_aggregate agg;
          if agg.Sim.Harness.Chaos.all_recovered then `Ok ()
          else
            `Error
              ( false,
                Printf.sprintf "%d phase verdict(s) failed to re-stabilise"
                  agg.Sim.Harness.Chaos.phase_failures )
        in
        match analyse () with
        | exception Invalid_argument m -> `Error (false, m)
        | r -> r
      end
  in
  Cmd.v (Cmd.info "chaos" ~doc)
    Term.(
      ret
        (const run $ levels_arg $ corollary_f_arg $ modulus_arg $ campaigns_arg
       $ phases_arg $ events_arg $ max_victims_arg $ sweep_flags))

(* ------------------------------------------------------------------ *)
(* Heartbeat stream helpers shared by report and watch.                *)

let read_file_content path = In_channel.with_open_bin path In_channel.input_all

let hb_progress_pct (v : Stdx.Heartbeat.view) =
  if v.cost_total > 0.0 then 100.0 *. v.cost_done /. v.cost_total
  else if v.cells_total > 0 then
    100.0 *. float_of_int v.cells_done /. float_of_int v.cells_total
  else 0.0

let hb_hits_string (v : Stdx.Heartbeat.view) =
  String.concat " "
    (List.map (fun (cls, n) -> Printf.sprintf "%s=%d" cls n) v.hits)

(* One status line per beat — the follow-mode rendering. *)
let hb_line (v : Stdx.Heartbeat.view) =
  let b = Buffer.create 96 in
  if v.label <> "" then Buffer.add_string b (v.label ^ "  ");
  Buffer.add_string b
    (Printf.sprintf "beat %d: %d/%d cells (%.1f%%), %d rounds, %.1fs"
       v.seq v.cells_done v.cells_total (hb_progress_pct v)
       v.rounds v.t_s);
  (match v.eta_s with
  | Some eta -> Buffer.add_string b (Printf.sprintf ", eta %.1fs" eta)
  | None -> ());
  if v.workers > 0 then
    Buffer.add_string b
      (Printf.sprintf ", %d worker(s) %.0f%% busy" v.workers
         (100.0 *. v.utilization));
  if v.hits <> [] then Buffer.add_string b (", hits " ^ hb_hits_string v);
  if v.final then Buffer.add_string b "  [final]";
  Buffer.contents b

(* The full status block — watch --once and report on heartbeat files. *)
let hb_block (v : Stdx.Heartbeat.view) =
  let t = Stdx.Table.create [ "field"; "value" ] in
  let add k value = Stdx.Table.add_row t [ k; value ] in
  if v.label <> "" then add "label" v.label;
  add "status" (if v.final then "final" else "running");
  add "progress"
    (Printf.sprintf "%d/%d cells (%.1f%% of modelled cost)" v.cells_done
       v.cells_total (hb_progress_pct v));
  add "rounds" (string_of_int v.rounds);
  add "elapsed" (Printf.sprintf "%.1fs" v.t_s);
  (match v.eta_s with
  | Some eta -> add "eta" (Printf.sprintf "%.1fs" eta)
  | None -> ());
  if v.workers > 0 then
    add "workers"
      (Printf.sprintf "%d, utilization %.0f%%" v.workers
         (100.0 *. v.utilization));
  add "gc heap" (Printf.sprintf "%d words" v.heap_words);
  if v.hits <> [] then add "hits" (hb_hits_string v);
  Stdx.Table.print t

(* ------------------------------------------------------------------ *)
(* report: offline analysis of a --trace JSONL file (or the latest
   snapshot of a --heartbeat stream).                                  *)

type report_row = {
  rr_cell : int;
  rr_phase : int;
  rr_adversary : string;
  rr_faulty : int list;
  rr_start : int;
  rr_end : int;
  rr_corruptions : int;
  rr_recovery : int option;
}

let report_cmd =
  let doc =
    "Analyse a JSONL trace written by --trace: per-phase recovery times \
     vs the planner's Theorem 1 bound, the corruption timeline, the \
     span profile (with --spans) and the slowest cells. Heartbeat files \
     (from --heartbeat) are detected and rendered as their latest \
     snapshot. --json emits the analysis as one JSON object instead."
  in
  let file_arg =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE"
          ~doc:"Trace file (JSONL, from --trace) or heartbeat stream.")
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Emit the analysis as a single JSON object on stdout \
             (jsonlint-clean; always exits 0 when the file parses — \
             failure counts travel in the JSON).")
  in
  let ids l = String.concat ";" (List.map string_of_int l) in
  let report_heartbeat ~json path content =
    match Stdx.Heartbeat.latest ~path content with
    | Error msg -> `Error (false, msg)
    | Ok (last, v) ->
      if json then print_endline last else hb_block v;
      `Ok ()
  in
  let run path json =
    match read_file_content path with
    | exception Sys_error msg -> `Error (false, msg)
    | content when String.trim content = "" ->
      `Error (false, Printf.sprintf "%s: empty file" path)
    | content ->
    match Stdx.Heartbeat.complete_lines content with
    | (_, first) :: _ when Stdx.Heartbeat.is_heartbeat_line first ->
      report_heartbeat ~json path content
    | _ ->
    let ic = open_in path in
    let parsed =
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> Sim.Trace.read_jsonl ic)
    in
    match parsed with
    | Error msg -> `Error (false, Printf.sprintf "%s: %s" path msg)
    | Ok events ->
      let bound = ref None in
      let meta = ref None in
      let span_tally : (string, int * float) Hashtbl.t = Hashtbl.create 8 in
      (* Events between Cell_start/Cell_end markers belong to that cell;
         a single-run trace without markers is implicitly cell 0. *)
      let cur_cell = ref 0 in
      let labels = Hashtbl.create 8 in
      let pending = ref None in
      let rows = ref [] in
      let timeline = ref [] in
      let walls = ref [] in
      let rounds_seen = ref 0 in
      let hunt_trials = ref 0 in
      let hunt_hits = ref 0 in
      let hunt_shrink_steps = ref 0 in
      let hunt_shrink_kept = ref 0 in
      let hunt_worst = ref neg_infinity in
      let flush_pending ~end_round ~recovery =
        match !pending with
        | None -> ()
        | Some (phase, adversary, faulty, start, corr) ->
          pending := None;
          rows :=
            {
              rr_cell = !cur_cell;
              rr_phase = phase;
              rr_adversary = adversary;
              rr_faulty = faulty;
              rr_start = start;
              rr_end = end_round;
              rr_corruptions = corr;
              rr_recovery = recovery;
            }
            :: !rows
      in
      List.iter
        (fun (ev : Sim.Trace.event) ->
          match ev with
          | Sim.Trace.Meta { label; n; f; c; time_bound } ->
            meta := Some (label, n, f, c);
            (match time_bound with Some t -> bound := Some t | None -> ());
            if not json then begin
              Printf.printf "%s  (n=%d f=%d c=%d" label n f c;
              (match time_bound with
              | Some t -> Printf.printf ", Theorem 1 bound T <= %d" t
              | None -> ());
              Printf.printf ")\n"
            end
          | Sim.Trace.Cell_start { cell; label } ->
            flush_pending ~end_round:(-1) ~recovery:None;
            cur_cell := cell;
            Hashtbl.replace labels cell label
          | Sim.Trace.Phase_start { round; phase; adversary; faulty } ->
            flush_pending ~end_round:round ~recovery:None;
            pending := Some (phase, adversary, faulty, round, 0)
          | Sim.Trace.Corruption { round; phase; requested; victims } ->
            (match !pending with
            | Some (p, a, f, s, corr) when p = phase ->
              pending := Some (p, a, f, s, corr + 1)
            | _ -> ());
            timeline := (!cur_cell, round, phase, requested, victims) :: !timeline
          | Sim.Trace.Detector_reset _ -> ()
          | Sim.Trace.Round _ -> incr rounds_seen
          | Sim.Trace.Verdict { round; phase = _; stabilized = _; recovery }
            -> flush_pending ~end_round:round ~recovery
          | Sim.Trace.Hunt_trial { score; hit; _ } ->
            incr hunt_trials;
            if hit then incr hunt_hits;
            if score > !hunt_worst then hunt_worst := score
          | Sim.Trace.Hunt_shrink { steps; kept; _ } ->
            hunt_shrink_steps := !hunt_shrink_steps + steps;
            hunt_shrink_kept := !hunt_shrink_kept + kept
          | Sim.Trace.Span { name; count; wall_s } ->
            let c0, w0 =
              Option.value (Hashtbl.find_opt span_tally name) ~default:(0, 0.0)
            in
            Hashtbl.replace span_tally name (c0 + count, w0 +. wall_s)
          | Sim.Trace.Cell_end { cell; wall_s } ->
            flush_pending ~end_round:(-1) ~recovery:None;
            walls := (cell, wall_s) :: !walls)
        events;
      flush_pending ~end_round:(-1) ~recovery:None;
      let rows = List.rev !rows in
      let span_rows =
        List.sort compare
          (Hashtbl.fold (fun k v acc -> (k, v) :: acc) span_tally [])
      in
      let recovered = List.filter (fun r -> r.rr_recovery <> None) rows in
      let exceeded =
        match !bound with
        | None -> 0
        | Some b ->
          List.length
            (List.filter
               (fun r ->
                 match r.rr_recovery with
                 | Some rec_ -> rec_ > b
                 | None -> false)
               rows)
      in
      let worst =
        List.fold_left
          (fun acc r ->
            match r.rr_recovery with Some v -> max acc v | None -> acc)
          0 recovered
      in
      let walls_sorted =
        List.sort (fun (_, a) (_, b) -> compare (b : float) a) !walls
      in
      let print_profile () =
        if span_rows <> [] then begin
          let is_pool name =
            String.length name >= 5 && String.sub name 0 5 = "pool."
          in
          let engine_rows =
            List.filter (fun (n, _) -> not (is_pool n)) span_rows
          in
          if engine_rows <> [] then begin
            Printf.printf "\nprofile (spans):\n";
            let t = Stdx.Table.create [ "span"; "count"; "total_s" ] in
            List.iter
              (fun (name, (count, wall)) ->
                Stdx.Table.add_row t
                  [ name; string_of_int count; Printf.sprintf "%.6f" wall ])
              engine_rows;
            Stdx.Table.print t
          end;
          match
            ( Hashtbl.find_opt span_tally "pool.busy",
              Hashtbl.find_opt span_tally "pool.claim",
              Hashtbl.find_opt span_tally "pool.idle" )
          with
          | Some (jobs, busy), Some (_, claim), Some (_, idle) ->
            Printf.printf
              "pool: %d worker(s), busy %.3fs, claim %.3fs, idle %.3fs\n"
              jobs busy claim idle
          | _ -> ()
        end
      in
      let emit_json () =
        let b = Buffer.create 512 in
        Buffer.add_string b "{\"kind\":\"report\"";
        (match !meta with
        | Some (label, n, f, c) ->
          Printf.bprintf b ",\"label\":\"%s\",\"n\":%d,\"f\":%d,\"c\":%d"
            (Stdx.Json.escape label) n f c
        | None -> ());
        (match !bound with
        | Some t -> Printf.bprintf b ",\"bound\":%d" t
        | None -> Buffer.add_string b ",\"bound\":null");
        Printf.bprintf b
          ",\"phases\":%d,\"recovered\":%d,\"failed\":%d,\"exceeded\":%d,\
           \"worst_recovery\":%d,\"round_events\":%d"
          (List.length rows) (List.length recovered)
          (List.length rows - List.length recovered)
          exceeded worst !rounds_seen;
        Printf.bprintf b
          ",\"hunt\":{\"trials\":%d,\"hits\":%d,\"shrink_steps\":%d,\
           \"shrink_kept\":%d,\"worst_score\":%s}"
          !hunt_trials !hunt_hits !hunt_shrink_steps !hunt_shrink_kept
          (if !hunt_worst > neg_infinity then
             Printf.sprintf "%.17g" !hunt_worst
           else "null");
        Printf.bprintf b ",\"spans\":[%s]"
          (String.concat ","
             (List.map
                (fun (name, (count, wall)) ->
                  Printf.sprintf
                    "{\"name\":\"%s\",\"count\":%d,\"wall_s\":%.17g}"
                    (Stdx.Json.escape name) count wall)
                span_rows));
        Printf.bprintf b ",\"cells\":[%s]}"
          (String.concat ","
             (List.map
                (fun (cell, wall) ->
                  Printf.sprintf "{\"cell\":%d,\"wall_s\":%.17g}" cell wall)
                walls_sorted));
        print_endline (Buffer.contents b)
      in
      let print_hunt () =
        if !hunt_trials > 0 then begin
          Printf.printf "hunt: %d trial(s), %d hit(s)" !hunt_trials !hunt_hits;
          if !hunt_shrink_steps > 0 then
            Printf.printf ", %d shrink step(s), %d kept" !hunt_shrink_steps
              !hunt_shrink_kept;
          if !hunt_hits > 0 && !hunt_worst > neg_infinity then
            Printf.printf ", worst score %.17g" !hunt_worst;
          Printf.printf "\n"
        end
      in
      if rows = [] && !hunt_trials = 0 && span_rows = [] then
        `Error
          (false, Printf.sprintf "%s: no phase reports in trace" path)
      else if json then begin
        emit_json ();
        `Ok ()
      end
      else if rows = [] then begin
        (* A hunt campaign trace: no per-phase engine seams, only the
           campaign-level trial/shrink stream. *)
        print_hunt ();
        print_profile ();
        `Ok ()
      end
      else begin
        let table =
          Stdx.Table.create
            [
              "cell"; "phase"; "adversary"; "faulty"; "start"; "end";
              "corr"; "recovery"; "vs bound";
            ]
        in
        List.iter
          (fun r ->
            let recovery, vs_bound =
              match (r.rr_recovery, !bound) with
              | Some rec_, Some b ->
                ( string_of_int rec_,
                  if rec_ <= b then "<= T" else "EXCEEDS T" )
              | Some rec_, None -> (string_of_int rec_, "-")
              | None, _ -> ("-", "FAILED")
            in
            Stdx.Table.add_row table
              [
                string_of_int r.rr_cell;
                string_of_int r.rr_phase;
                r.rr_adversary;
                "[" ^ ids r.rr_faulty ^ "]";
                string_of_int r.rr_start;
                (if r.rr_end < 0 then "?" else string_of_int r.rr_end);
                string_of_int r.rr_corruptions;
                recovery;
                vs_bound;
              ])
          rows;
        Stdx.Table.print table;
        (match List.rev !timeline with
        | [] -> ()
        | tl ->
          Printf.printf "\ncorruption timeline:\n";
          List.iter
            (fun (cell, round, phase, requested, victims) ->
              let actual = List.length victims in
              Printf.printf "  round %d (phase %d, cell %d): %d victim(s) [%s]%s\n"
                round phase cell actual (ids victims)
                (if actual < requested then
                   Printf.sprintf " (clamped from %d)" requested
                 else ""))
            tl);
        (match walls_sorted with
        | [] -> ()
        | walls ->
          Printf.printf "\nslowest cells:\n";
          List.iteri
            (fun i (cell, wall_s) ->
              if i < 5 then
                Printf.printf "  cell %d: %.3fs  %s\n" cell wall_s
                  (Option.value
                     (Hashtbl.find_opt labels cell)
                     ~default:""))
            walls);
        Printf.printf
          "\n%d/%d phase(s) re-stabilised, worst recovery %d round(s)"
          (List.length recovered) (List.length rows) worst;
        (match !bound with
        | Some b when exceeded = 0 ->
          Printf.printf "; all within the Theorem 1 bound T <= %d" b
        | Some b ->
          Printf.printf "; %d phase(s) EXCEED the Theorem 1 bound T <= %d"
            exceeded b
        | None -> ());
        if !rounds_seen > 0 then
          Printf.printf " (%d round events)" !rounds_seen;
        Printf.printf "\n";
        print_profile ();
        print_hunt ();
        if List.length recovered = List.length rows then `Ok ()
        else
          `Error
            ( false,
              Printf.sprintf "%d phase(s) did not re-stabilise"
                (List.length rows - List.length recovered) )
      end
  in
  Cmd.v (Cmd.info "report" ~doc) Term.(ret (const run $ file_arg $ json_arg))

(* ------------------------------------------------------------------ *)
(* hunt: adversarial schedule fuzzing with shrinking and a corpus.     *)

let hunt_cmd =
  let doc =
    "Hunt for adversarial fault schedules: a seed-replayable fuzzer \
     generates random chaos schedules (plus structured mutations), scores \
     each by badness (failed re-stabilisation, then recovery vs the \
     Theorem 1 bound, then clamped events), and shrinks every hit to a \
     minimal reproducer. Hits are written to a JSONL corpus with \
     --corpus; --replay re-executes a corpus as a regression gate and \
     exits non-zero if any entry stops reproducing. The hunt is \
     bit-identical at any --jobs setting."
  in
  let algo_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "algorithm" ] ~docv:"SPEC"
          ~doc:
            "Hunt a small explicit algorithm (trivial:C or leader:N:C) \
             instead of a planned tower.")
  in
  let claim_f_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "claim-f" ] ~docv:"F"
          ~doc:
            "Override the spec's claimed resilience to $(docv) before \
             hunting — deliberately over-claiming gives the hunter a \
             genuine counterexample to find and shrink.")
  in
  let bound_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "bound" ] ~docv:"T"
          ~doc:
            "Stabilisation-time bound recoveries are scored against \
             (default: the planner's Theorem 1 bound; --algorithm specs \
             have no bound unless this is given).")
  in
  let trials_arg =
    Arg.(
      value & opt int 48
      & info [ "trials" ] ~docv:"N"
          ~doc:"Fuzzing trials; all trial seeds derive from --hunt-seed.")
  in
  let phases_arg =
    Arg.(
      value & opt int 3
      & info [ "phases" ] ~docv:"P" ~doc:"Phases per generated schedule.")
  in
  let events_arg =
    Arg.(
      value & opt int 2
      & info [ "events" ] ~docv:"E"
          ~doc:"Transient corruption events per generated schedule.")
  in
  let max_victims_arg =
    Arg.(
      value & opt int 2
      & info [ "max-victims" ] ~docv:"K"
          ~doc:"Max correct nodes corrupted per transient event.")
  in
  let mutations_arg =
    Arg.(
      value & opt int 2
      & info [ "mutations" ] ~docv:"M"
          ~doc:
            "Each trial applies 0..$(docv) structured mutations on top of \
             its random schedule.")
  in
  let near_bound_arg =
    Arg.(
      value & opt float 0.9
      & info [ "near-bound" ] ~docv:"R"
          ~doc:
            "Treat recoveries at or above fraction $(docv) of the bound \
             as near-bound hits.")
  in
  let shrink_budget_arg =
    Arg.(
      value & opt int 256
      & info [ "shrink-budget" ] ~docv:"N"
          ~doc:"Max candidate executions while shrinking one hit.")
  in
  let hunt_seed_arg =
    Arg.(
      value & opt int 1
      & info [ "hunt-seed" ] ~docv:"S"
          ~doc:
            "Master fuzzing seed; equal seeds (and parameters) give \
             byte-identical hunts and corpora.")
  in
  let corpus_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "corpus" ] ~docv:"FILE"
          ~doc:"Write every shrunk reproducer to $(docv), one JSON line each.")
  in
  let replay_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "replay" ] ~docv:"FILE"
          ~doc:
            "Replay the corpus at $(docv) instead of hunting: re-execute \
             every entry and check it reproduces its recorded badness \
             exactly.")
  in
  let run levels corollary1 modulus algo claim_f bound trials phases events
      max_victims mutations shrink_budget near_bound hunt_seed corpus
      replay_path opts =
    let resolved =
      match (algo, bound) with
      | _, Some b when b < 1 -> Error (`Msg "--bound must be >= 1")
      | Some s, _ -> (
        match parse_algo s with
        | Some p -> Ok (p, bound)
        | None ->
          Error (`Msg "unknown algorithm spec (trivial:C or leader:N:C)"))
      | None, _ -> (
        match plan_tower levels corollary1 modulus with
        | Error e -> Error e
        | Ok tower ->
          let time_bound =
            match bound with
            | Some b -> Some b
            | None -> Some (Counting.Plan.top tower).Counting.Plan.time_bound
          in
          Ok (Counting.Build.tower tower, time_bound))
    in
    match resolved with
    | Error (`Msg m) -> `Error (false, m)
    | Ok (Algo.Spec.Packed spec, time_bound) -> (
      match sim_error spec opts with
      | Some msg -> `Error (false, msg)
      | None ->
      let analyse () =
        let spec =
          match claim_f with
          | Some f -> Algo.Combinators.with_claimed_resilience spec ~f
          | None -> spec
        in
        (* The one adversary registry: schedules are generated from it,
           corpus entries name strategies by it, and replay resolves
           against it — so a corpus written here always reads here. *)
        let adversaries =
          Sim.Adversary.standard_suite ()
          @ [ Sim.Adversary.greedy_confusion ~pool:2 () ]
        in
        let meta =
          Sim.Trace.Meta
            {
              label = spec.Algo.Spec.name;
              n = spec.Algo.Spec.n;
              f = spec.Algo.Spec.f;
              c = spec.Algo.Spec.c;
              time_bound;
            }
        in
        match replay_path with
        | Some path -> (
          let ic = open_in path in
          let parsed =
            Fun.protect
              ~finally:(fun () -> close_in ic)
              (fun () -> Sim.Hunt.Corpus.read ~adversaries ic)
          in
          match parsed with
          | Error msg -> `Error (false, Printf.sprintf "%s: %s" path msg)
          | Ok [] -> `Error (false, Printf.sprintf "%s: empty corpus" path)
          | Ok entries ->
            let results =
              with_telemetry ~meta opts
              @@ fun ~metrics ~trace ~spans ~heartbeat ->
              Sim.Hunt.Corpus.replay ?metrics ?trace ~spans ?heartbeat
                ~jobs:opts.jobs ~spec ~entries ()
            in
            let diverged = ref 0 in
            List.iter
              (fun ((e : _ Sim.Hunt.Corpus.entry), b, reproduced) ->
                Printf.printf
                  "trial %d [%s]: recorded score %.17g, replayed %.17g — %s\n"
                  e.Sim.Hunt.Corpus.trial
                  (Sim.Hunt.cls_to_string e.Sim.Hunt.Corpus.cls)
                  (Sim.Hunt.score e.Sim.Hunt.Corpus.badness)
                  (Sim.Hunt.score b)
                  (if reproduced then "reproduced" else "DIVERGED");
                if not reproduced then incr diverged)
              results;
            Printf.printf "%d/%d corpus entries reproduced\n"
              (List.length results - !diverged)
              (List.length results);
            if !diverged = 0 then `Ok ()
            else
              `Error
                ( false,
                  Printf.sprintf "%d corpus entr%s did not reproduce"
                    !diverged
                    (if !diverged = 1 then "y" else "ies") ))
        | None ->
          let phase_rounds = Option.value opts.rounds ~default:400 in
          let run_seed =
            match opts.seeds with Some (s :: _) -> s | _ -> 1
          in
          let config =
            let open Sim.Hunt.Config in
            let cfg =
              default |> with_trials trials |> with_phases phases
              |> with_events events |> with_max_victims max_victims
              |> with_mutations mutations |> with_seed hunt_seed
              |> with_run_seed run_seed |> with_phase_rounds phase_rounds
              |> with_near_bound near_bound
              |> with_shrink_budget shrink_budget
              |> with_jobs opts.jobs
            in
            let cfg =
              match time_bound with
              | Some b -> with_time_bound b cfg
              | None -> cfg
            in
            match opts.min_suffix with
            | Some m -> with_min_suffix m cfg
            | None -> cfg
          in
          let report =
            with_telemetry ~meta opts
            @@ fun ~metrics ~trace ~spans ~heartbeat ->
            Sim.Hunt.run ?metrics ?trace ~spans ?heartbeat ~config ~spec
              ~adversaries ()
          in
          Printf.printf "%s\n" spec.Algo.Spec.name;
          Printf.printf "%d trial(s), %d execution(s), %d hit(s)\n"
            report.Sim.Hunt.trials report.Sim.Hunt.executions
            (List.length report.Sim.Hunt.hits);
          List.iter
            (fun (h : _ Sim.Hunt.hit) ->
              Printf.printf
                "  trial %d [%s]: score %.17g, size %d -> %d (%d shrink \
                 step(s), %d kept)\n    %s\n"
                h.Sim.Hunt.trial
                (Sim.Hunt.cls_to_string h.Sim.Hunt.cls)
                (Sim.Hunt.score h.Sim.Hunt.badness)
                h.Sim.Hunt.original_size h.Sim.Hunt.size
                h.Sim.Hunt.shrink_steps h.Sim.Hunt.shrink_kept
                (Sim.Schedule.describe h.Sim.Hunt.schedule))
            report.Sim.Hunt.hits;
          (match report.Sim.Hunt.worst with
          | Some w ->
            Printf.printf "worst: trial %d, score %.17g\n" w.Sim.Hunt.trial
              (Sim.Hunt.score w.Sim.Hunt.badness)
          | None -> ());
          (match corpus with
          | Some path ->
            let entries = Sim.Hunt.Corpus.of_report ~spec ~hunt_seed report in
            let oc = open_out path in
            Fun.protect
              ~finally:(fun () -> close_out oc)
              (fun () -> Sim.Hunt.Corpus.write oc entries);
            Printf.printf "wrote %d corpus entr%s to %s\n"
              (List.length entries)
              (if List.length entries = 1 then "y" else "ies")
              path
          | None -> ());
          `Ok ()
      in
      match analyse () with
      | exception Invalid_argument m -> `Error (false, m)
      | r -> r)
  in
  Cmd.v (Cmd.info "hunt" ~doc)
    Term.(
      ret
        (const run $ levels_arg $ corollary_f_arg $ modulus_arg $ algo_arg
       $ claim_f_arg $ bound_arg $ trials_arg $ phases_arg $ events_arg
       $ max_victims_arg $ mutations_arg $ shrink_budget_arg $ near_bound_arg
       $ hunt_seed_arg $ corpus_arg $ replay_arg $ sweep_flags))

(* ------------------------------------------------------------------ *)
(* watch: follow a heartbeat stream live.                              *)

let watch_cmd =
  let doc =
    "Follow a heartbeat stream (written by --heartbeat): render each new \
     beat as a status line until the terminal 'final' line arrives. With \
     --once, render the latest snapshot and exit immediately \
     (CI-friendly)."
  in
  let file_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FILE"
          ~doc:
            "Heartbeat JSONL file. In follow mode a missing file is \
             waited for, so the watcher can start before the campaign.")
  in
  let once_arg =
    Arg.(
      value & flag
      & info [ "once" ]
          ~doc:"Render the latest heartbeat snapshot once and exit.")
  in
  let interval_arg =
    Arg.(
      value & opt float 1.0
      & info [ "interval" ] ~docv:"SECS"
          ~doc:"Poll interval while following (default 1).")
  in
  let run path once interval =
    if not (Float.is_finite interval) || interval <= 0.0 then
      `Error (false, "--interval must be a finite number > 0")
    else if once then begin
      match read_file_content path with
      | exception Sys_error msg -> `Error (false, msg)
      | content -> (
        match Stdx.Heartbeat.latest ~path content with
        | Error msg -> `Error (false, msg)
        | Ok (_, v) ->
          hb_block v;
          `Ok ())
    end
    else begin
      (* Tail loop: one status line per fresh complete beat; lines that
         fail to parse (foreign content in a shared file) are skipped.
         Stops at the first "final":true line. *)
      let seen = ref 0 in
      let finished = ref false in
      while not !finished do
        (match read_file_content path with
        | exception Sys_error _ -> ()
        | content ->
          let lines = Stdx.Heartbeat.complete_lines content in
          let total = List.length lines in
          if total > !seen then begin
            List.iteri
              (fun i (_, line) ->
                if i >= !seen && not !finished then
                  match Stdx.Heartbeat.view_of_line line with
                  | Error _ -> ()
                  | Ok v ->
                    print_endline (hb_line v);
                    flush stdout;
                    if v.final then finished := true)
              lines;
            seen := total
          end);
        if not !finished then Unix.sleepf interval
      done;
      `Ok ()
    end
  in
  Cmd.v (Cmd.info "watch" ~doc)
    Term.(ret (const run $ file_arg $ once_arg $ interval_arg))

let adversaries_cmd =
  let doc = "List the available adversary strategies." in
  let run () =
    List.iter
      (fun a -> print_endline (Sim.Adversary.name a))
      (Sim.Adversary.standard_suite ()
      @ [ Sim.Adversary.greedy_confusion ~pool:2 () ]);
    `Ok ()
  in
  Cmd.v (Cmd.info "adversaries" ~doc) Term.(ret (const run $ const ()))

let () =
  let doc = "self-stabilising Byzantine synchronous counting toolbox" in
  let info = Cmd.info "countctl" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            plan_cmd; run_cmd; chaos_cmd; hunt_cmd; verify_cmd; report_cmd;
            watch_cmd; adversaries_cmd;
          ]))
