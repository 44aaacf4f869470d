(* Shared plumbing for the experiment harness. *)

(* Process-wide bench registry: every [timed_sweep] and every
   [measure_worst] harness run records into it, and the accumulated
   snapshot is embedded as the "metrics" block of BENCH_sweep.json at
   flush time. *)
let metrics = Stdx.Metrics.create ()

let section title =
  let bar = String.make 72 '=' in
  Printf.printf "\n%s\n%s\n%s\n" bar title bar

let subsection title = Printf.printf "\n--- %s ---\n" title

(* The concrete instances used across experiments, with fixed state
   types so probes can be used. *)

let a41 ~c =
  Counting.Boost.construct ~inner:(Counting.Trivial.single ~c:2304) ~k:4
    ~big_f:1 ~big_c:c

let a12_3 ~c =
  Counting.Boost.construct ~inner:(a41 ~c:960).Counting.Boost.spec ~k:3
    ~big_f:3 ~big_c:c

let a36_7 ~c =
  Counting.Boost.construct ~inner:(a12_3 ~c:1728).Counting.Boost.spec ~k:3
    ~big_f:7 ~big_c:c

(* Worker-domain count for the embarrassingly parallel sweep grids:
   REPRO_JOBS overrides (the CI hook), otherwise the machine's
   recommended domain count. *)
let default_jobs () =
  match Sys.getenv_opt "REPRO_JOBS" with
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some j when j >= 1 -> j
    | _ -> Stdx.Pool.recommended_jobs ())
  | None -> Stdx.Pool.recommended_jobs ()

(* ------------------------------------------------------------------ *)
(* Machine-readable sweep log: every harness sweep run by the benches is
   recorded (per-run rounds simulated, verdict, early-exit round, and
   wall-clock per sweep) and flushed to BENCH_sweep.json at exit, so the
   early-exit speedup of the streaming engine lands in the repo's perf
   trajectory next to the pretty tables.

   Sweeps are tracked from [timed_sweep] entry: a sweep that crashes
   mid-run stays in [in_flight] and is dropped at flush time (with a
   note), so the at_exit hook never writes a record for a sweep that did
   not complete. *)

type sweep_record = {
  label : string;
  mode : string;
  wall_s : float;
  agg : Sim.Harness.aggregate;
}

let sweep_json_path = "BENCH_sweep.json"
let sweep_records : sweep_record list ref = ref []
let in_flight : string list ref = ref []
let flush_registered = ref false

let json_of_outcome (o : Sim.Harness.outcome) =
  let verdict, at =
    match o.Sim.Harness.verdict with
    | Sim.Stabilise.Stabilized t -> ("stabilized", string_of_int t)
    | Sim.Stabilise.Not_stabilized -> ("not-stabilized", "null")
  in
  Printf.sprintf
    "{\"adversary\":%S,\"faulty\":[%s],\"seed\":%d,\"verdict\":%S,\
     \"stabilised_at\":%s,\"rounds_simulated\":%d,\"early_exit\":%b}"
    o.Sim.Harness.adversary
    (String.concat "," (List.map string_of_int o.Sim.Harness.faulty))
    o.Sim.Harness.seed verdict at o.Sim.Harness.rounds_simulated
    o.Sim.Harness.early_exit

let json_of_record r =
  let agg = r.agg in
  let runs = List.length agg.Sim.Harness.outcomes in
  let full = runs * agg.Sim.Harness.horizon in
  Printf.sprintf
    "    {\"label\":\"%s\",\"mode\":\"%s\",\"horizon\":%d,\"runs\":%d,\n\
    \     \"total_rounds_simulated\":%d,\"full_horizon_rounds\":%d,\n\
    \     \"wall_clock_s\":%.6f,\"worst\":%s,\"all_stabilized\":%b,\n\
    \     \"outcomes\":[\n      %s\n     ]}"
    (Stdx.Json.escape r.label) r.mode agg.Sim.Harness.horizon runs
    agg.Sim.Harness.total_rounds_simulated full r.wall_s
    (match agg.Sim.Harness.worst with
    | Some w -> string_of_int w
    | None -> "null")
    agg.Sim.Harness.all_stabilized
    (String.concat ",\n      "
       (List.map json_of_outcome agg.Sim.Harness.outcomes))

let flush_sweep_log () =
  let dropped = List.rev !in_flight in
  if dropped <> [] then
    Printf.printf
      "\n[%d partial sweep(s) dropped from %s (crashed mid-run): %s]\n"
      (List.length dropped) sweep_json_path
      (String.concat ", " dropped);
  match List.rev !sweep_records with
  | [] -> ()
  | records ->
    let oc = open_out sweep_json_path in
    Printf.fprintf oc "{\n  \"dropped_partial_sweeps\": %d,\n  \"sweeps\": [\n"
      (List.length dropped);
    output_string oc (String.concat ",\n" (List.map json_of_record records));
    Printf.fprintf oc "\n  ],\n  \"metrics\": %s\n}\n"
      (Stdx.Metrics.to_json (Stdx.Metrics.snapshot metrics));
    close_out oc;
    Printf.printf "\n[%d sweep record(s) written to %s]\n"
      (List.length records) sweep_json_path

let mode_string = function
  | Sim.Engine.Streaming -> "streaming"
  | Sim.Engine.Full_horizon -> "full-horizon"

(* Run one sweep under the crash-safe log: registered as in-flight before
   the first run executes, recorded (with its wall clock) only on
   completion. *)
let timed_sweep ~label ~mode sweep =
  if not !flush_registered then begin
    flush_registered := true;
    at_exit flush_sweep_log
  end;
  in_flight := label :: !in_flight;
  let agg, wall_s = Stdx.Metrics.timed metrics "bench.sweep_wall_s" sweep in
  (match !in_flight with
  | l :: rest when String.equal l label -> in_flight := rest
  | other -> in_flight := List.filter (fun l -> not (String.equal l label)) other);
  sweep_records := { label; mode = mode_string mode; wall_s; agg } :: !sweep_records;
  (agg, wall_s)

(* Worst observed stabilisation time over an adversary/fault/seed grid;
   None when some run failed to stabilise. Runs on the streaming engine
   (early exit) unless [mode] says otherwise, on [jobs] domains (default
   [default_jobs ()]); every call is recorded in the sweep log. *)
let measure_worst ?(seeds = [ 1; 2; 3 ]) ?(rounds = 4000)
    ?(mode = Sim.Engine.Streaming) ?jobs ?label ~spec ~adversaries ~fault_sets
    () =
  let jobs = match jobs with Some j -> j | None -> default_jobs () in
  let config =
    Sim.Harness.Config.(
      default |> with_fault_sets fault_sets |> with_seeds seeds
      |> with_rounds rounds |> with_mode mode |> with_jobs jobs)
  in
  let label = match label with Some l -> l | None -> spec.Algo.Spec.name in
  let agg, _wall_s =
    timed_sweep ~label ~mode (fun () ->
        Sim.Harness.run ~metrics ~config ~spec ~adversaries ())
  in
  (agg.Sim.Harness.worst, agg)

let verdict_cell = function
  | Some w -> string_of_int w
  | None -> "FAILED"

let fraction_of_seeds ~seeds ~stabilised =
  Printf.sprintf "%d/%d" stabilised seeds

(* Clean-counting fraction over a window of rounds: the empirical
   per-round success rate of Theorem 4's probabilistic counters. *)
let clean_fraction ~c ~correct outputs ~from_round ~to_round =
  let ok = ref 0 and total = ref 0 in
  for t = from_round to to_round - 1 do
    incr total;
    if Sim.Stabilise.count_ok_step ~c ~correct outputs ~round:t then incr ok
  done;
  if !total = 0 then 0.0 else float_of_int !ok /. float_of_int !total
