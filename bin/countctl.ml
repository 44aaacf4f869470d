(* countctl: command-line front end for planning, running and verifying
   synchronous counters.

     dune exec bin/countctl.exe -- plan --levels 4:1,3:3 --modulus 10
     dune exec bin/countctl.exe -- run --levels 4:1,3:3 --modulus 10 \
         --faulty 0,5,9 --adversary split-brain --rounds 4000 --seed 7,8,9
     dune exec bin/countctl.exe -- verify --algorithm leader:4:3 --jobs 4
     dune exec bin/countctl.exe -- adversaries *)

open Cmdliner

let levels_arg =
  Arg.(
    value
    & opt (some (list (pair ~sep:':' int int))) None
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
  | Some l, None ->
    Ok (List.map (fun (k, big_f) -> { Counting.Plan.k; big_f }) l)
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
    (Sim.Adversary.registry ())

(* The [Meta] header a --trace file starts with. *)
let meta (spec : _ Algo.Spec.t) time_bound =
  Sim.Trace.Meta
    {
      label = spec.Algo.Spec.name;
      n = spec.Algo.Spec.n;
      f = spec.Algo.Spec.f;
      c = spec.Algo.Spec.c;
      time_bound;
    }

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

(* run and verify judge counting over the whole horizon, which must
   witness at least one full mod-c period (the Sim.Min_suffix.resolve
   contract of the sweeps); a shorter one is refused up front. *)
let short_rounds_error c =
  Printf.sprintf "--rounds must be >= %d (one full mod-%d counting period)" c
    c

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
    Arg.(
      value
      & opt (some (list int)) None
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
           else if seeds = Some [] then `Error (false, "need at least one seed")
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

(* The shape of a random fault schedule, shared by chaos and hunt and
   validated here, as [sweep_flags] validates --jobs, before either
   command generates one. *)
type shape = { phases : int; events : int; max_victims : int }

let shape_flags =
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
  Term.(
    ret
      (const (fun phases events max_victims ->
           if phases < 1 then `Error (false, "--phases must be >= 1")
           else if events < 0 then `Error (false, "--events must be >= 0")
           else if max_victims < 1 then
             `Error (false, "--max-victims must be >= 1")
           else `Ok { phases; events; max_victims })
      $ phases_arg $ events_arg $ max_victims_arg))

(* Output files (--trace, --heartbeat-file, hunt's --corpus) are opened
   before any work starts, so a bad path costs nothing: one that cannot
   be opened ends the command with a [countctl: cannot open ...]
   error. *)
let open_or_exit open_ path =
  try open_ path
  with Sys_error msg ->
    Printf.eprintf "countctl: cannot open %s\n%!" msg;
    exit Cmd.Exit.some_error

(* Telemetry plumbing shared by run/verify/chaos/hunt: a metrics
   registry when --metrics was given, a JSONL sink (prefixed with one
   [Meta] header line) when --trace was given, a heartbeat stream
   (appended to --heartbeat-file, terminal line owned here) when
   --heartbeat was given, and the metrics table printed after the
   wrapped action returns. *)
let with_telemetry ~meta opts
    (f :
      metrics:Stdx.Metrics.t option ->
      trace:Sim.Trace.t option ->
      spans:bool ->
      heartbeat:Stdx.Heartbeat.t option ->
      'a) =
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
  Arg.(
    value
    & opt (list int) []
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
        if rounds < spec.Algo.Spec.c then
          `Error (false, short_rounds_error spec.Algo.Spec.c)
        else
        let time_bound = (Counting.Plan.top tower).Counting.Plan.time_bound in
        let seeds = Option.value opts.seeds ~default:[ 1 ] in
        let config =
          {
            Sim.Harness.Config.fault_sets = Some [ faulty ];
            seeds;
            min_suffix = opts.min_suffix;
            mode =
              (if full_trace then Sim.Engine.Full_horizon
               else Sim.Engine.Streaming);
            rounds;
            jobs = opts.jobs;
          }
        in
        with_telemetry ~meta:(meta spec (Some time_bound)) opts
        @@ fun ~metrics ~trace ~spans ~heartbeat ->
        let agg =
          Sim.Harness.run ?metrics ?trace ~spans ?heartbeat ~config ~spec
            ~adversaries:[ adversary ] ()
        in
        Printf.printf "%s\n" spec.Algo.Spec.name;
        List.iter
          (fun (o : Sim.Harness.outcome) ->
            if List.length seeds > 1 then
              Printf.printf "seed %d:\n" o.Sim.Harness.seed;
            (match o.Sim.Harness.verdict with
            | Sim.Stabilise.Stabilized t ->
              Printf.printf "stabilised at round %d (bound %d)\n" t time_bound
            | Sim.Stabilise.Not_stabilized ->
              Printf.printf "did not stabilise within %d rounds\n" rounds;
              List.iter
                (fun (r, outs) ->
                  Printf.printf "  round %d outputs: %s\n" r
                    (String.concat " "
                       (Array.to_list (Array.map string_of_int outs))))
                o.Sim.Harness.recent_outputs);
            if o.Sim.Harness.early_exit then
              Printf.printf "simulated %d of %d rounds (early exit)\n"
                o.Sim.Harness.rounds_simulated rounds)
          agg.Sim.Harness.outcomes;
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
      if rounds < period then `Error (false, short_rounds_error period)
      else
      match Mc.Checker.check ~jobs:opts.jobs spec with
      | Ok report ->
        Printf.printf "VERIFIED: exact worst-case stabilisation T = %d\n"
          report.Mc.Checker.worst_stabilisation;
        (* Cross-check the exact bound against the streaming simulator:
           worst observed stabilisation over the hostile suite must not
           exceed the model checker's T. *)
        let default = Sim.Harness.Config.default in
        let config =
          {
            default with
            seeds = Option.value opts.seeds ~default:default.seeds;
            min_suffix = opts.min_suffix;
            rounds;
            jobs = opts.jobs;
          }
        in
        let agg =
          with_telemetry
            ~meta:(meta spec (Some report.Mc.Checker.worst_stabilisation))
            opts
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
  let run levels corollary1 modulus campaigns
      { phases; events; max_victims } opts =
    match plan_tower levels corollary1 modulus with
    | Error (`Msg m) -> `Error (false, m)
    | Ok tower ->
      let (Algo.Spec.Packed spec) = Counting.Build.tower tower in
      match sim_error spec opts with
      | Some msg -> `Error (false, msg)
      | None ->
      if campaigns < 1 then `Error (false, "--campaigns must be >= 1")
      else begin
        (* --rounds is the base phase duration here: each phase lasts
           rounds..2*rounds-1, so a schedule's horizon is phase-count
           dependent rather than fixed. *)
        let config =
          {
            Sim.Harness.Chaos.Config.campaigns;
            phases;
            phase_rounds = Option.value opts.rounds ~default:600;
            events;
            max_victims;
            seeds =
              Option.value opts.seeds
                ~default:Sim.Harness.Chaos.Config.default.seeds;
            min_suffix = opts.min_suffix;
            jobs = opts.jobs;
          }
        in
        let analyse () =
          with_telemetry
            ~meta:
              (meta spec
                 (Some (Counting.Plan.top tower).Counting.Plan.time_bound))
            opts
          @@ fun ~metrics ~trace ~spans ~heartbeat ->
          let agg =
            Sim.Harness.Chaos.run ?metrics ?trace ~spans ?heartbeat ~config
              ~spec ~adversaries:(Sim.Adversary.registry ()) ()
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
       $ shape_flags $ sweep_flags))

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

(* The latest snapshot of a heartbeat stream: its raw JSON line with
   [json], else the status block. *)
let show_heartbeat ~json path content =
  match Stdx.Heartbeat.latest ~path content with
  | Error msg -> `Error (false, msg)
  | Ok (last, v) ->
    if json then print_endline last else hb_block v;
    `Ok ()

(* ------------------------------------------------------------------ *)
(* report: tables over [Sim.Report], the analysis of a --trace JSONL
   file (or the latest snapshot of a --heartbeat stream).              *)

let print_profile (r : Sim.Report.t) =
  let pool (name, _) = String.starts_with ~prefix:"pool." name in
  let engine = List.filter (fun s -> not (pool s)) r.spans in
  if engine <> [] then begin
    Printf.printf "\nprofile (spans):\n";
    let t = Stdx.Table.create [ "span"; "count"; "total_s" ] in
    List.iter
      (fun (name, (count, wall)) ->
        Stdx.Table.add_row t
          [ name; string_of_int count; Printf.sprintf "%.6f" wall ])
      engine;
    Stdx.Table.print t
  end;
  let span name = List.assoc_opt name r.spans in
  match (span "pool.busy", span "pool.claim", span "pool.idle") with
  | Some (jobs, busy), Some (_, claim), Some (_, idle) ->
    Printf.printf "pool: %d worker(s), busy %.3fs, claim %.3fs, idle %.3fs\n"
      jobs busy claim idle
  | _ -> ()

let print_hunt (r : Sim.Report.t) =
  if r.trials > 0 then begin
    Printf.printf "hunt: %d trial(s), %d hit(s)" r.trials r.hits;
    if r.shrink_steps > 0 then
      Printf.printf ", %d shrink step(s), %d kept" r.shrink_steps r.shrink_kept;
    if r.hits > 0 && r.worst_score > neg_infinity then
      Printf.printf ", worst score %.17g" r.worst_score;
    Printf.printf "\n"
  end

let print_phases (r : Sim.Report.t) =
  let ids l = String.concat ";" (List.map string_of_int l) in
  let table =
    Stdx.Table.create
      [ "cell"; "phase"; "adversary"; "faulty"; "start"; "end"; "corr";
        "recovery"; "vs bound" ]
  in
  List.iter
    (fun (cell, (p : Sim.Engine.phase_report)) ->
      let vs_bound =
        match (p.recovery, r.bound) with
        | Some x, Some b -> if x <= b then "<= T" else "EXCEEDS T"
        | Some _, None -> "-"
        | None, _ -> "FAILED"
      in
      let recovery = Option.fold ~none:"-" ~some:string_of_int p.recovery in
      Stdx.Table.add_row table
        [ string_of_int cell; string_of_int p.phase; p.adversary;
          "[" ^ ids p.faulty ^ "]"; string_of_int p.start_round;
          (if p.end_round < 0 then "?" else string_of_int p.end_round);
          string_of_int (p.perturbations - 1); recovery; vs_bound ])
    r.phases;
  Stdx.Table.print table;
  if r.corruptions <> [] then Printf.printf "\ncorruption timeline:\n";
  List.iter
    (fun (e : Sim.Report.corruption) ->
      let actual = List.length e.victims in
      Printf.printf "  round %d (phase %d, cell %d): %d victim(s) [%s]%s\n"
        e.round e.phase e.cell actual (ids e.victims)
        (if actual < e.requested then
           Printf.sprintf " (clamped from %d)" e.requested
         else ""))
    r.corruptions;
  if r.cells <> [] then Printf.printf "\nslowest cells:\n";
  List.iteri
    (fun i (c : Sim.Report.cell) ->
      if i < 5 then
        Printf.printf "  cell %d: %.3fs  %s\n" c.cell c.wall_s c.label)
    r.cells;
  Printf.printf "\n%d/%d phase(s) re-stabilised, worst recovery %d round(s)"
    r.recovered (List.length r.phases) r.worst_recovery;
  (match r.bound with
  | Some b when r.exceeded = 0 ->
    Printf.printf "; all within the Theorem 1 bound T <= %d" b
  | Some b ->
    Printf.printf "; %d phase(s) EXCEED the Theorem 1 bound T <= %d"
      r.exceeded b
  | None -> ());
  Printf.printf "\n"

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
  let run path json =
    match read_file_content path with
    | exception Sys_error msg -> `Error (false, msg)
    | content when String.trim content = "" ->
      `Error (false, Printf.sprintf "%s: empty file" path)
    | content ->
    match Stdx.Heartbeat.complete_lines content with
    | (_, first) :: _ when Stdx.Heartbeat.is_heartbeat_line first ->
      show_heartbeat ~json path content
    | _ ->
    match Sim.Trace.parse_jsonl content with
    | Error msg -> `Error (false, Printf.sprintf "%s: %s" path msg)
    | Ok events ->
      let r = Sim.Report.analyse events in
      if not json then
        List.iter
          (fun (m : Sim.Report.meta) ->
            Printf.printf "%s  (n=%d f=%d c=%d%s)\n" m.label m.n m.f m.c
              (Option.fold m.time_bound ~none:""
                 ~some:(Printf.sprintf ", Theorem 1 bound T <= %d")))
          r.metas;
      let failed = List.length r.phases - r.recovered in
      if r.phases = [] && r.trials = 0 && r.spans = [] then
        `Error (false, Printf.sprintf "%s: no phase reports in trace" path)
      else if json then `Ok (print_endline (Sim.Report.to_json r))
      else begin
        (* A hunt campaign trace has no per-phase engine seams, only the
           campaign-level trial/shrink stream, so its tally leads. *)
        if r.phases = [] then print_hunt r else print_phases r;
        print_profile r;
        if r.phases <> [] then print_hunt r;
        if failed = 0 then `Ok ()
        else
          `Error (false, Printf.sprintf "%d phase(s) did not re-stabilise" failed)
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
      & opt (some non_dir_file) None
      & info [ "replay" ] ~docv:"FILE"
          ~doc:
            "Replay the corpus at $(docv) instead of hunting: re-execute \
             every entry and check it reproduces its recorded badness \
             exactly.")
  in
  let run levels corollary1 modulus algo claim_f bound trials
      { phases; events; max_victims } mutations shrink_budget near_bound
      hunt_seed corpus replay_path opts =
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
        let adversaries = Sim.Adversary.registry () in
        let meta = meta spec time_bound in
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
          let corpus_oc =
            Option.map (fun path -> (path, open_or_exit open_out path)) corpus
          in
          Fun.protect
            ~finally:(fun () ->
              Option.iter (fun (_, oc) -> close_out oc) corpus_oc)
          @@ fun () ->
          let config =
            {
              Sim.Hunt.Config.trials;
              phases;
              phase_rounds = Option.value opts.rounds ~default:400;
              events;
              max_victims;
              mutations;
              seed = hunt_seed;
              run_seed =
                (match opts.seeds with Some (s :: _) -> s | _ -> 1);
              time_bound;
              near_bound;
              shrink_budget;
              min_suffix = opts.min_suffix;
              jobs = opts.jobs;
            }
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
          (match corpus_oc with
          | Some (path, oc) ->
            let entries = Sim.Hunt.Corpus.of_report ~spec ~hunt_seed report in
            Sim.Hunt.Corpus.write oc entries;
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
       $ claim_f_arg $ bound_arg $ trials_arg $ shape_flags $ mutations_arg
       $ shrink_budget_arg $ near_bound_arg
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
    else if once then (
      match read_file_content path with
      | exception Sys_error msg -> `Error (false, msg)
      | content -> show_heartbeat ~json:false path content)
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
      (Sim.Adversary.registry ());
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
