(* Metric definitions, sample summaries, compare verdicts, the per-layer
   waterfall and the JSON record the benchmark writes. Pure: nothing here
   runs a workload, so the unit tests cover all of it. *)

type better = Lower | Higher

(* Which statistic of a metric's per-rep samples is its value. *)
type stat =
  | Median
  | Fast_decile
      (** the tenth of reps furthest toward [better]: the 10th percentile
          of a lower-is-better metric, the 90th of a higher-is-better one *)

type metric = {
  name : string;
  unit_ : string;
  better : better;
  bound : float;
  stat : stat;
}

let better_name = function Lower -> "lower" | Higher -> "higher"

(* End-to-end metrics: what a user running the campaign sees. [bound] is
   the share of the base value by which a metric may worsen before
   [compare] calls it a regression; [failed_frac] has bound 0, so any
   rise is one. Host contention on the shared reference VM only ever
   adds time, so the campaign's times are read at their fast decile:
   over ten 30 s runs it spread 2-15 % where unscaled medians spread up
   to 42 % (README.md). Set-up time keeps the median and gets the
   largest bound, so work moved into set-up still shows. Keep
   BENCHMARK.json in step (a unit test checks it). *)
let end_to_end =
  [
    { name = "wall_s"; unit_ = "s"; better = Lower; bound = 0.24; stat = Fast_decile };
    {
      name = "node_rounds_per_s";
      unit_ = "node-rounds/s";
      better = Higher;
      bound = 0.24;
      stat = Fast_decile;
    };
    { name = "setup_s"; unit_ = "s"; better = Lower; bound = 0.25; stat = Median };
    { name = "peak_rss_mb"; unit_ = "MB"; better = Lower; bound = 0.10; stat = Median };
    { name = "failed_frac"; unit_ = "ratio"; better = Lower; bound = 0.0; stat = Median };
  ]

let metric name = List.find (fun m -> m.name = name) end_to_end

(* Per-layer metrics of the traced child, in waterfall order. They carry
   no bound; [better] says which way an optimisation should move them. *)
let layers =
  let l name unit_ better = { name; unit_; better; bound = 0.0; stat = Median } in
  [
    l "core.build_s" "s" Lower;
    l "schedule.gen_s" "s" Lower;
    l "pool.wall_s" "s" Lower;
    l "pool.busy_s" "s" Lower;
    l "pool.claim_s" "s" Lower;
    l "pool.idle_s" "s" Lower;
    l "pool.idle_frac" "ratio" Lower;
    l "pool.tasks" "count" Lower;
    l "engine.craft_s" "s" Lower;
    l "engine.step_s" "s" Lower;
    l "engine.detect_s" "s" Lower;
    l "engine.loop_s" "s" Lower;
    l "engine.ns_per_node_round" "ns" Lower;
    l "engine.span_coverage" "ratio" Higher;
    l "engine.runs" "count" Lower;
    l "engine.node_rounds" "count" Lower;
    l "engine.rounds_per_run" "rounds" Lower;
    l "engine.early_exit_frac" "ratio" Higher;
    l "engine.bridged_phase_frac" "ratio" Lower;
    l "cell.other_s" "s" Lower;
    l "hunt.trial_s" "s" Lower;
    l "hunt.shrink_s" "s" Lower;
    l "hunt.shrink_frac" "ratio" Lower;
    l "hunt.hit_frac" "ratio" Higher;
    l "hunt.execs_per_trial" "count" Lower;
    l "hunt.shrink_steps_per_hit" "count" Lower;
    l "hunt.corpus_write_s" "s" Lower;
    l "hunt.corpus_read_s" "s" Lower;
    l "hunt.replay_s" "s" Lower;
    l "hunt.corpus_bytes" "bytes" Lower;
    l "driver.outside_pool_s" "s" Lower;
    l "driver.unattributed_s" "s" Lower;
    l "telemetry.overhead_s" "s" Lower;
    l "trace.bytes" "bytes" Lower;
    l "heartbeat.lines" "count" Lower;
    l "gc.minor_words_per_node_round" "words" Lower;
    l "gc.minor_collections" "count" Lower;
    l "gc.major_collections" "count" Lower;
    l "trace_overhead_frac" "ratio" Lower;
    l "host.probe_s" "s" Lower;
    l "host.raw_wall_s" "s" Lower;
  ]

let workload_names = [ "chaos-a36"; "chaos-a12-greedy"; "hunt-observed"; "sweep-a12" ]

(* ------------------------------------------------------------------ *)
(* Summaries *)

type summary = { median : float; q1 : float; q3 : float; samples : float list }

let sorted xs = Array.of_list (List.sort Float.compare xs)

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Record.median: no samples"
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Quartiles by Python's [statistics.quantiles(xs, n=4)] (its default
   "exclusive" method), so the spreads printed here are the ones the
   benchmark contract is checked with. A single sample is its own
   quartiles. *)
let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld = 0 then invalid_arg "Record.quartiles: no samples"
  else if ld = 1 then (a.(0), a.(0), a.(0))
  else
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.0
    in
    (q 1, q 2, q 3)

let summarize samples =
  let q1, _, q3 = quartiles samples in
  { median = median samples; q1; q3; samples }

(* The [p] quantile by linear interpolation between order statistics, so
   it stays within the samples however few there are. *)
let quantile xs p =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Record.quantile: no samples"
  else
    let pos = p *. float_of_int (n - 1) in
    let i = int_of_float pos in
    let j = min (i + 1) (n - 1) in
    a.(i) +. ((a.(j) -. a.(i)) *. (pos -. float_of_int i))

let value m s =
  match (m.stat, m.better) with
  | Median, _ -> s.median
  | Fast_decile, Lower -> quantile s.samples 0.1
  | Fast_decile, Higher -> quantile s.samples 0.9

let rel_spread s =
  if s.median = 0.0 then if s.q3 = s.q1 then 0.0 else infinity
  else (s.q3 -. s.q1) /. Float.abs s.median

let mean s =
  List.fold_left ( +. ) 0.0 s.samples /. float_of_int (List.length s.samples)

(* ------------------------------------------------------------------ *)
(* Compare verdicts *)

type verdict = Better | Same | Worse | Unresolved

let verdict_name = function
  | Better -> "better"
  | Same -> "same"
  | Worse -> "worse"
  | Unresolved -> "unresolved"

(* Signed relative change of the value, positive = worse. *)
let worse_by m ~base ~next =
  let b = value m base and n = value m next in
  let delta =
    if b = 0.0 then if n = 0.0 then 0.0 else Float.copy_sign infinity n
    else (n -. b) /. Float.abs b
  in
  match m.better with Lower -> delta | Higher -> -.delta

let judge m ~base ~next =
  if m.bound = 0.0 then begin
    (* Failure fractions are counts, not noisy timings: any rise of the
       per-rep mean is a regression. *)
    let b = mean base and n = mean next in
    let worse = match m.better with Lower -> n > b | Higher -> n < b in
    let better = match m.better with Lower -> n < b | Higher -> n > b in
    if worse then Worse else if better then Better else Same
  end
  else begin
    let w = worse_by m ~base ~next in
    if Float.max (rel_spread base) (rel_spread next) > m.bound then begin
      (* Too noisy to call — unless every new sample beats every base
         sample. *)
      let beats x y = match m.better with Lower -> x < y | Higher -> x > y in
      if
        List.for_all
          (fun x -> List.for_all (fun y -> beats x y) base.samples)
          next.samples
      then Better
      else Unresolved
    end
    else if w > m.bound then Worse
    else if w < -.m.bound then Better
    else Same
  end

(* ------------------------------------------------------------------ *)
(* Waterfall *)

(* [parts] are the top-level rows attributed by spans and pool stats;
   the remainder is shown as its own row and never clamped, so rows that
   over-attribute show up as a negative [driver.unattributed_s]. *)
let waterfall ~wall parts =
  let attributed = List.fold_left (fun acc (_, v) -> acc +. v) 0.0 parts in
  parts @ [ ("driver.unattributed_s", wall -. attributed) ]

(* ------------------------------------------------------------------ *)
(* The record *)

type fingerprint = {
  nproc : int;
  ocaml : string;
  flambda : bool;
  jobs : int;
  seed : int;
  reps : int;
  git_rev : string option;
}

type workload = {
  name : string;
  digest : string;
  digests_agree : bool;
  attempted : int;
  failed : int;
  phase_failures : int;
  metrics : (string * summary) list;  (** end-to-end, over the timed reps *)
  layers : (string * float) list;  (** the traced child; empty if none ran *)
  waterfall : (string * float) list;  (** sums to the traced child's wall *)
}

type t = {
  fingerprint : fingerprint;
  probe_s : float list;  (** host probe time before each round *)
  workloads : workload list;
}

(* %.17g round-trips every finite float; non-finite values (a ratio over
   an empty denominator) are written as null and read back as nan. *)
let num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null"
let str s = "\"" ^ Stdx.Json.escape s ^ "\""
let obj fields = "{" ^ String.concat "," fields ^ "}"
let arr items = "[" ^ String.concat "," items ^ "]"
let kv k v = str k ^ ":" ^ v

let summary_json s =
  obj
    [
      kv "median" (num s.median);
      kv "q1" (num s.q1);
      kv "q3" (num s.q3);
      kv "samples" (arr (List.map num s.samples));
    ]

let pairs_json rows = obj (List.map (fun (k, v) -> kv k (num v)) rows)

let workload_json w =
  obj
    [
      kv "name" (str w.name);
      kv "digest" (str w.digest);
      kv "digests_agree" (string_of_bool w.digests_agree);
      kv "attempted" (string_of_int w.attempted);
      kv "failed" (string_of_int w.failed);
      kv "phase_failures" (string_of_int w.phase_failures);
      kv "metrics"
        (obj
           (List.map
              (fun (name, s) ->
                let m = metric name in
                kv name
                  (obj
                     [
                       kv "unit" (str m.unit_);
                       kv "better" (str (better_name m.better));
                       kv "bound" (num m.bound);
                       kv "value" (num (value m s));
                       kv "summary" (summary_json s);
                     ]))
              w.metrics));
      kv "layers" (pairs_json w.layers);
      kv "waterfall" (pairs_json w.waterfall);
    ]

let to_json r =
  let f = r.fingerprint in
  obj
    [
      kv "kind" (str "benchmark-record");
      kv "fingerprint"
        (obj
           [
             kv "nproc" (string_of_int f.nproc);
             kv "ocaml" (str f.ocaml);
             kv "flambda" (string_of_bool f.flambda);
             kv "jobs" (string_of_int f.jobs);
             kv "seed" (string_of_int f.seed);
             kv "reps" (string_of_int f.reps);
             kv "git_rev"
               (match f.git_rev with Some s -> str s | None -> "null");
           ]);
      kv "probe_s" (arr (List.map num r.probe_s));
      kv "workloads"
        ("[\n" ^ String.concat ",\n" (List.map workload_json r.workloads) ^ "\n]");
    ]
  ^ "\n"

let to_num name = function
  | Stdx.Json.Null -> nan
  | j -> Stdx.Json.to_float name j

let fields name j =
  match j with
  | Stdx.Json.Object kvs -> kvs
  | _ -> raise (Stdx.Json.Parse_error (name ^ ": expected an object"))

let summary_of_json j =
  let open Stdx.Json in
  let samples = List.map (to_num "samples") (to_list "samples" (field j "samples")) in
  {
    median = to_num "median" (field j "median");
    q1 = to_num "q1" (field j "q1");
    q3 = to_num "q3" (field j "q3");
    samples;
  }

let pairs_of_json name j = List.map (fun (k, v) -> (k, to_num k v)) (fields name j)

let workload_of_json j =
  let open Stdx.Json in
  {
    name = to_string "name" (field j "name");
    digest = to_string "digest" (field j "digest");
    digests_agree = to_bool "digests_agree" (field j "digests_agree");
    attempted = to_int "attempted" (field j "attempted");
    failed = to_int "failed" (field j "failed");
    phase_failures = to_int "phase_failures" (field j "phase_failures");
    metrics =
      List.map
        (fun (k, v) -> (k, summary_of_json (field v "summary")))
        (fields "metrics" (field j "metrics"));
    layers = pairs_of_json "layers" (field j "layers");
    waterfall = pairs_of_json "waterfall" (field j "waterfall");
  }

let of_json j =
  let open Stdx.Json in
  (match field_opt j "kind" with
  | Some (String "benchmark-record") -> ()
  | _ -> raise (Parse_error "expected \"kind\":\"benchmark-record\""));
  let f = field j "fingerprint" in
  {
    fingerprint =
      {
        nproc = to_int "nproc" (field f "nproc");
        ocaml = to_string "ocaml" (field f "ocaml");
        flambda = to_bool "flambda" (field f "flambda");
        jobs = to_int "jobs" (field f "jobs");
        seed = to_int "seed" (field f "seed");
        reps = to_int "reps" (field f "reps");
        git_rev =
          (match field f "git_rev" with
          | Null -> None
          | v -> Some (to_string "git_rev" v));
      };
    probe_s = List.map (to_num "probe_s") (to_list "probe_s" (field j "probe_s"));
    workloads = List.map workload_of_json (to_list "workloads" (field j "workloads"));
  }

let read path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error msg -> Error msg
  | s -> (
    match of_json (Stdx.Json.parse s) with
    | r -> Ok r
    | exception Stdx.Json.Parse_error msg -> Error (path ^ ": " ^ msg))

(* ------------------------------------------------------------------ *)
(* Paired compare *)

type row = {
  workload : string;
  metric : metric;
  base : summary;
  next : summary;
  verdict : verdict;
}

type comparison = {
  rows : row list;
  digest_mismatches : string list;  (** workloads whose outcome digests differ *)
  missing : string list;  (** workloads present in only one record *)
  seeds_differ : bool;  (** digests are only comparable at equal seeds *)
}

let compare_records ~base ~next =
  let find r name = List.find_opt (fun w -> w.name = name) r.workloads in
  let seeds_differ = base.fingerprint.seed <> next.fingerprint.seed in
  let names = List.map (fun w -> w.name) base.workloads in
  let missing =
    List.filter (fun n -> find next n = None) names
    @ List.filter_map
        (fun w -> if find base w.name = None then Some w.name else None)
        next.workloads
  in
  let pairs =
    List.filter_map
      (fun n ->
        match (find base n, find next n) with
        | Some b, Some x -> Some (b, x)
        | _ -> None)
      names
  in
  let rows =
    List.concat_map
      (fun (b, x) ->
        List.filter_map
          (fun (m : metric) ->
            match
              (List.assoc_opt m.name b.metrics, List.assoc_opt m.name x.metrics)
            with
            | Some bs, Some xs ->
              Some
                {
                  workload = b.name;
                  metric = m;
                  base = bs;
                  next = xs;
                  verdict = judge m ~base:bs ~next:xs;
                }
            | _ -> None)
          end_to_end)
      pairs
  in
  let digest_mismatches =
    if seeds_differ then []
    else
      List.filter_map
        (fun (b, x) ->
          if b.digest <> x.digest || not (b.digests_agree && x.digests_agree)
          then Some b.name
          else None)
        pairs
  in
  { rows; digest_mismatches; missing; seeds_differ }

let regressed c =
  c.digest_mismatches <> [] || c.missing <> []
  || List.exists (fun r -> r.verdict = Worse) c.rows
