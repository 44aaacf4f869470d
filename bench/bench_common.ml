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
  let t0 = Stdx.Metrics.wall_clock () in
  let agg = sweep () in
  let wall_s = Stdx.Metrics.wall_clock () -. t0 in
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

(* ------------------------------------------------------------------ *)
(* The one bench timer. A sample runs a thunk back to back until it
   holds about [sample_s] of work, so a 2 ms engine run and a 0.25 s
   hunt are timed over spans of one length and a scheduler hiccup is a
   small share of any sample; one calibration run fixes the number of
   runs per sample. [Gc.minor_words] reads the allocation pointer, so
   the minor count is exact; direct major-heap allocation reaches
   [quick_stat] only at the domain's next minor collection, so one is
   forced, off the clock, on both sides of the sample.

   An overhead is measured in pairs of samples, one per side, whose runs
   interleave one by one (off, on, off, on, ... with the first side
   alternating from pair to pair), so the host's slow spells, which
   swing single samples by 2x on a shared 2-vCPU host, land on both
   sides of a pair. The overheads are judged as the repository
   benchmark's compare judges a change: over the budget only when the
   lower quartile of the paired overheads is above it, within only when
   the upper quartile is at or below it, unresolved when the quartiles
   straddle it. *)

let sample_s = 0.2
let pairs = 15
let budget_pct = 5.0

(* Per-run seconds and words of one sample of [runs] runs. *)
type sample = { seconds : float; minor_words : float; major_words : float }

let sample ~runs f =
  Gc.minor ();
  let j0 = (Gc.quick_stat ()).Gc.major_words in
  let t0 = Stdx.Metrics.wall_clock () in
  let m0 = Gc.minor_words () in
  for _ = 1 to runs do
    ignore (Sys.opaque_identity (f ()))
  done;
  let m1 = Gc.minor_words () in
  let t1 = Stdx.Metrics.wall_clock () in
  Gc.minor ();
  let j1 = (Gc.quick_stat ()).Gc.major_words in
  let per x = x /. float_of_int runs in
  {
    seconds = per (Float.max 0.0 (t1 -. t0));
    minor_words = per (m1 -. m0);
    major_words = per (j1 -. j0);
  }

let runs_per_sample f =
  let one = (sample ~runs:1 f).seconds in
  max 1 (Float.to_int (Float.round (sample_s /. Float.max 1e-9 one)))

let median xs = Stdx.Stats.percentile 0.5 xs

(* One side alone: five samples, each field's median. *)
let measure f =
  let runs = runs_per_sample f in
  let all = List.init 5 (fun _ -> sample ~runs f) in
  let med field = median (List.map field all) in
  {
    seconds = med (fun x -> x.seconds);
    minor_words = med (fun x -> x.minor_words);
    major_words = med (fun x -> x.major_words);
  }

type paired = {
  runs : int;  (** runs per sample, both sides *)
  off_s : float list;  (** per-run seconds of each pair's [off] sample *)
  on_s : float list;
  overheads_pct : float list;  (** per pair, [on / off - 1] *)
  median_pct : float;
  q1_pct : float;
  q3_pct : float;
  verdict : string;  (** ["within"], ["over"] or ["unresolved"] *)
}

let paired ~off ~on =
  let runs = runs_per_sample off in
  let pair i =
    let off_s = ref 0.0 and on_s = ref 0.0 in
    let time total f =
      let t0 = Stdx.Metrics.wall_clock () in
      ignore (Sys.opaque_identity (f ()));
      total := !total +. Float.max 0.0 (Stdx.Metrics.wall_clock () -. t0)
    in
    for _ = 1 to runs do
      if i mod 2 = 0 then begin
        time off_s off;
        time on_s on
      end
      else begin
        time on_s on;
        time off_s off
      end
    done;
    let per x = !x /. float_of_int runs in
    (per off_s, per on_s)
  in
  let ps = List.init pairs pair in
  let overheads_pct =
    List.map (fun (off, on) -> 100.0 *. ((on /. off) -. 1.0)) ps
  in
  let q p = Stdx.Stats.percentile p overheads_pct in
  let q1_pct = q 0.25 and q3_pct = q 0.75 in
  {
    runs;
    off_s = List.map fst ps;
    on_s = List.map snd ps;
    overheads_pct;
    median_pct = q 0.5;
    q1_pct;
    q3_pct;
    verdict =
      (if q1_pct > budget_pct then "over"
       else if q3_pct <= budget_pct then "within"
       else "unresolved");
  }

let fingerprint_json () =
  Printf.sprintf "{\"nproc\":%d,\"ocaml\":\"%s\",\"flambda\":%b}"
    (Domain.recommended_domain_count ())
    (Stdx.Json.escape Sys.ocaml_version)
    Build_info.flambda

(* A paired measurement's JSON fields, to sit inside a bench's object. *)
let paired_json p =
  let seconds l = String.concat "," (List.map (Printf.sprintf "%.6f") l) in
  Printf.sprintf
    "\"pairs\":%d,\"runs_per_sample\":%d,\"budget_pct\":%.1f,\
     \"median_overhead_pct\":%.2f,\"q1_overhead_pct\":%.2f,\
     \"q3_overhead_pct\":%.2f,\"verdict\":\"%s\",\n\
    \   \"off_s\":[%s],\n\
    \   \"on_s\":[%s]"
    pairs p.runs budget_pct p.median_pct p.q1_pct p.q3_pct p.verdict
    (seconds p.off_s) (seconds p.on_s)
