(* The repository benchmark. Every timed repetition runs one workload in a
   fresh child process of this binary, as each countctl invocation does.

     dune exec benchmark/main.exe -- --seed 1
         all four workloads, 5 reps round-robin, a traced child each;
         writes benchmark/out/record-seed1.json (+ -spans.jsonl)
     dune exec benchmark/main.exe -- --workload sweep-a12 --seed 1 \
         --seconds 20 --trace 0
         one workload for a fixed time; the last stdout line is one JSON
         object with the end-to-end (--trace 0) or per-layer (--trace 1)
         metrics
     dune exec benchmark/main.exe -- compare BASE.json NEW.json
         paired verdicts per workload and metric; exit 1 on a regression *)

module R = Bench_record.Record
module W = Workload

let now = Unix.gettimeofday
let out_dir = Filename.concat "benchmark" "out"

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Sys.rmdir dir
  end

exception Child_failed of string

type child = {
  run_id : string;
  workload : string;
  mode : W.mode;
  spawned : float;
  exited : float;
  result : W.result;
}

let last_line s =
  match
    List.rev
      (List.filter (fun l -> String.trim l <> "") (String.split_on_char '\n' s))
  with
  | l :: _ -> Some l
  | [] -> None

let rec waitpid pid =
  try snd (Unix.waitpid [] pid)
  with Unix.Unix_error (Unix.EINTR, _, _) -> waitpid pid

let spawn ~run_id ~workload ~seed mode =
  let dir = Filename.concat out_dir (Printf.sprintf "tmp-%d" (Unix.getpid ())) in
  mkdir_p dir;
  let exe = Sys.executable_name in
  let argv =
    [|
      exe; "child"; "--workload"; workload; "--seed"; string_of_int seed;
      "--mode"; W.mode_name mode; "--dir"; dir;
    |]
  in
  let rd, wr = Unix.pipe ~cloexec:true () in
  let spawned = now () in
  let pid = Unix.create_process exe argv Unix.stdin wr Unix.stderr in
  Unix.close wr;
  let ic = Unix.in_channel_of_descr rd in
  let out = In_channel.input_all ic in
  close_in ic;
  let status = waitpid pid in
  let exited = now () in
  rm_rf dir;
  let fail why = raise (Child_failed (Printf.sprintf "%s: %s" run_id why)) in
  match (status, last_line out) with
  | Unix.WEXITED 0, Some line -> (
    match W.result_of_json (Stdx.Json.parse line) with
    | result -> { run_id; workload; mode; spawned; exited; result }
    | exception Stdx.Json.Parse_error msg -> fail msg)
  | Unix.WEXITED 0, None -> fail "no output"
  | Unix.WEXITED c, _ -> fail (Printf.sprintf "exit %d" c)
  | (Unix.WSIGNALED s | Unix.WSTOPPED s), _ -> fail (Printf.sprintf "signal %d" s)

(* The host probe: fixed stdlib-only work on one domain, shaped like the
   engine's hot loop (random updates of an L2-sized int table, byte
   reads, short-lived allocation). On the shared 2-vCPU reference VM
   identical reps slow by up to 2x for minutes at a time, and this
   kernel slows with them. The parent runs it before every round
   and scales the run's times by [reference_s /. p10], where p10 is the
   10th percentile of the run's probe times: the host's speed in its
   quieter moments, which the reps' own fast decile is read against.
   [reference_s] is about the kernel's time on the idle reference VM, so
   scaled times read as seconds there. *)
let reference_s = 0.2

let probe () =
  let n = 1 lsl 15 in
  let table = Array.make n 0 and bytes = Bytes.make 4096 'a' in
  let x = ref 1 and live = ref [] in
  let t0 = now () in
  for k = 1 to 105_000_000 do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    let i = !x land (n - 1) in
    table.(i) <- table.(i) + Char.code (Bytes.unsafe_get bytes (i land 4095));
    if k land 63 = 0 then live := [ k ] :: (if k land 4095 = 0 then [] else !live)
  done;
  ignore (Sys.opaque_identity (table, !live));
  now () -. t0

let probe_p10 probes = R.quantile probes 0.1

let git_rev () =
  (* Only a checkout that is itself a git work tree is asked. *)
  if not (Sys.file_exists ".git") then None
  else
    let ic = Unix.open_process_in "git rev-parse HEAD 2>/dev/null" in
    let line = In_channel.input_line ic in
    match (Unix.close_process_in ic, line) with
    | Unix.WEXITED 0, Some l when String.trim l <> "" -> Some (String.trim l)
    | _ -> None

let fingerprint ~seed ~reps =
  {
    R.nproc = Domain.recommended_domain_count ();
    ocaml = Sys.ocaml_version;
    flambda = Build_info.flambda;
    jobs = W.jobs;
    seed;
    reps;
    git_rev = git_rev ();
  }

(* ------------------------------------------------------------------ *)
(* Summaries *)

let checked c =
  match c.result.W.checked with
  | Some k -> k
  | None -> raise (Child_failed (c.run_id ^ ": no outcome"))

let raw_wall_s c = c.result.W.wall_s

(* [reps] are the timed children and [setups] every child whose set-up
   time counts. The traced and telemetry-off children's digests must
   agree with the reps' too: telemetry is inert. End-to-end times are
   scaled to the reference host's speed by [reference_s /. probe]; the
   overheads compare single children with the reps' unscaled median. *)
let summarize name ~probe ~reps ~setups ~traced ~telemetry_off =
  let scale = reference_s /. probe in
  let samples f = List.map f reps in
  let wall_s c = raw_wall_s c *. scale in
  let raw_median = R.median (samples raw_wall_s) in
  let all = reps @ Option.to_list traced @ Option.to_list telemetry_off in
  let digests = List.map (fun c -> (checked c).W.digest) all in
  let first = checked (List.hd reps) in
  let extra =
    ( "trace_overhead_frac",
      match traced with Some t -> (raw_wall_s t /. raw_median) -. 1.0 | None -> 0.0 )
    :: ( "telemetry.overhead_s",
         match telemetry_off with Some o -> raw_median -. raw_wall_s o | None -> 0.0 )
    :: ("host.probe_s", probe)
    :: ("host.raw_wall_s", raw_median)
    :: (match traced with Some t -> t.result.W.layers | None -> [])
  in
  {
    R.name;
    digest = first.W.digest;
    digests_agree = List.for_all (( = ) first.W.digest) digests;
    attempted = List.fold_left (fun a c -> a + (checked c).W.attempted) 0 reps;
    failed = List.fold_left (fun a c -> a + (checked c).W.failed) 0 reps;
    phase_failures = first.W.phase_failures;
    metrics =
      [
        ("wall_s", R.summarize (samples wall_s));
        ( "node_rounds_per_s",
          R.summarize
            (samples (fun c ->
                 float_of_int (checked c).W.node_rounds /. wall_s c)) );
        ( "setup_s",
          R.summarize
            (List.map (fun c -> (c.result.W.setup_done -. c.spawned) *. scale) setups)
        );
        ("peak_rss_mb", R.summarize (samples (fun c -> c.result.W.peak_rss_mb)));
        ( "failed_frac",
          R.summarize
            (samples (fun c ->
                 let k = checked c in
                 float_of_int k.W.failed /. float_of_int (max 1 k.W.attempted)))
        );
      ];
    layers =
      (if traced = None then []
       else
         List.map
           (fun (m : R.metric) ->
             (m.R.name, Option.value (List.assoc_opt m.R.name extra) ~default:0.0))
           R.layers);
    waterfall = (match traced with Some t -> t.result.W.waterfall | None -> []);
  }

let correct (w : R.workload) = w.R.digests_agree && w.R.failed = 0

(* ------------------------------------------------------------------ *)
(* Output *)

let fmt v = Printf.sprintf "%.6g" v

let print_e2e (r : R.t) =
  let t =
    Stdx.Table.create
      [
        "workload"; "metric"; "unit"; "value"; "median"; "q1"; "q3"; "iqr/median"; "n";
      ]
  in
  List.iter
    (fun (w : R.workload) ->
      List.iter
        (fun (name, (s : R.summary)) ->
          let m = R.metric name in
          Stdx.Table.add_row t
            [
              w.R.name; name; m.R.unit_; fmt (R.value m s); fmt s.R.median;
              fmt s.R.q1; fmt s.R.q3; fmt (R.rel_spread s);
              string_of_int (List.length s.R.samples);
            ])
        w.R.metrics;
      Stdx.Table.add_rule t)
    r.R.workloads;
  Stdx.Table.print t;
  List.iter
    (fun (w : R.workload) ->
      Printf.printf "%s: digest %s%s, %d/%d failed, %d phase failure(s)\n"
        w.R.name w.R.digest
        (if w.R.digests_agree then "" else " (REPS DISAGREE)")
        w.R.failed w.R.attempted w.R.phase_failures)
    r.R.workloads;
  let p10 = probe_p10 r.R.probe_s in
  Printf.printf
    "host probe: 10th percentile %s s, median %s s over %d rounds; times above \
     are scaled by %s s / %s s. value = 10th percentile of wall_s (90th of \
     node_rounds_per_s), else the median\n"
    (fmt p10) (fmt (R.median r.R.probe_s)) (List.length r.R.probe_s)
    (fmt reference_s) (fmt p10)

let print_layers (w : R.workload) =
  if w.R.layers <> [] then begin
    Printf.printf "\n%s: per-layer (traced child)\n" w.R.name;
    let t = Stdx.Table.create [ "layer metric"; "value"; "unit" ] in
    List.iter2
      (fun (name, v) (m : R.metric) ->
        Stdx.Table.add_row t [ name; fmt v; m.R.unit_ ])
      w.R.layers R.layers;
    Stdx.Table.print t;
    let wall = List.fold_left (fun a (_, v) -> a +. v) 0.0 w.R.waterfall in
    Printf.printf "%s: waterfall\n" w.R.name;
    let t = Stdx.Table.create [ "row"; "s"; "share" ] in
    List.iter
      (fun (name, v) -> Stdx.Table.add_row t [ name; fmt v; fmt (v /. wall) ])
      w.R.waterfall;
    Stdx.Table.add_rule t;
    Stdx.Table.add_row t [ "= traced wall_s"; fmt wall; "1" ];
    Stdx.Table.print t
  end

let span_lines children =
  List.concat_map
    (fun c ->
      let line ~id ~parent ~name ~start_s ~end_s =
        R.obj
          [
            R.kv "run" (R.str c.run_id);
            R.kv "id" (string_of_int id);
            R.kv "parent"
              (match parent with Some p -> string_of_int p | None -> "null");
            R.kv "name" (R.str name);
            R.kv "start_s" (R.num start_s);
            R.kv "end_s" (R.num end_s);
          ]
      in
      line ~id:0 ~parent:None
        ~name:("child." ^ W.mode_name c.mode)
        ~start_s:c.spawned ~end_s:c.exited
      :: List.map
           (fun (s : W.span) ->
             line ~id:s.W.id ~parent:(Some s.W.parent) ~name:s.W.name
               ~start_s:s.W.start_s ~end_s:s.W.end_s)
           c.result.W.spans)
    children

let write_outputs ~path (r : R.t) children =
  mkdir_p (Filename.dirname path);
  Out_channel.with_open_bin path (fun oc -> output_string oc (R.to_json r));
  let spans = Filename.remove_extension path ^ "-spans.jsonl" in
  Out_channel.with_open_bin spans (fun oc ->
      List.iter
        (fun l ->
          output_string oc l;
          output_char oc '\n')
        (span_lines children));
  Printf.printf "record: %s\nspans: %s\n" path spans

(* ------------------------------------------------------------------ *)
(* Modes *)

type plan = {
  workloads : string list;
  seed : int;
  probe_s : float list ref;
  children : child list ref;  (** in spawn order, for the span file *)
}

let run_child p ~workload mode =
  let k = List.length !(p.children) in
  let c =
    spawn
      ~run_id:(Printf.sprintf "%s/%d/%s" workload k (W.mode_name mode))
      ~workload ~seed:p.seed mode
  in
  p.children := !(p.children) @ [ c ];
  c

let of_mode p workload mode =
  List.filter (fun c -> c.mode = mode && c.workload = workload) !(p.children)

let setup_children_per_round = 4

(* The host probe, set-up-only children, then one timed child. *)
let round p ~workload =
  p.probe_s := probe () :: !(p.probe_s);
  for _ = 1 to setup_children_per_round do
    ignore (run_child p ~workload W.Setup_only)
  done;
  ignore (run_child p ~workload W.Timed)

(* The traced child, plus the telemetry-off A/B child for the one
   workload whose user command turns telemetry on. *)
let traced_children p workload =
  let traced = run_child p ~workload W.Traced in
  let off =
    if workload = "hunt-observed" then Some (run_child p ~workload W.Telemetry_off)
    else None
  in
  (traced, off)

let record p ~reps ~traced =
  let probe_s = List.rev !(p.probe_s) in
  {
    R.fingerprint = fingerprint ~seed:p.seed ~reps;
    probe_s;
    workloads =
      List.map
        (fun w ->
          let traced, telemetry_off =
            match List.assoc_opt w traced with
            | Some (t, o) -> (Some t, o)
            | None -> (None, None)
          in
          summarize w ~probe:(probe_p10 probe_s) ~reps:(of_mode p w W.Timed)
            ~setups:(of_mode p w W.Timed @ of_mode p w W.Setup_only)
            ~traced ~telemetry_off)
        p.workloads;
  }

(* All four workloads, [reps] timed children each, round-robin so host
   slowdowns spread over every workload. *)
let reps = 5

let full ~seed ~out =
  let p =
    { workloads = R.workload_names; seed; probe_s = ref []; children = ref [] }
  in
  for _ = 1 to reps do
    List.iter (fun workload -> round p ~workload) p.workloads
  done;
  let traced = List.map (fun w -> (w, traced_children p w)) p.workloads in
  let r = record p ~reps ~traced in
  print_e2e r;
  List.iter print_layers r.R.workloads;
  let path =
    match out with
    | Some path -> path
    | None -> Filename.concat out_dir (Printf.sprintf "record-seed%d.json" seed)
  in
  write_outputs ~path r !(p.children);
  if List.for_all correct r.R.workloads then 0 else 1

(* One workload for [seconds]: an unrecorded warm-up probe and child,
   then rounds while another one still fits (at least 3), with --trace 1
   half the time and then the traced child. *)
let single ~workload ~seed ~seconds ~trace =
  let p = { workloads = [ workload ]; seed; probe_s = ref []; children = ref [] } in
  let t0 = now () in
  ignore (probe ());
  ignore (spawn ~run_id:(workload ^ "/warm-up") ~workload ~seed W.Timed);
  let budget, min_reps = if trace then (seconds /. 2.0, 1) else (seconds, 3) in
  let reps = ref 0 and round_s = ref 0.0 in
  while !reps < min_reps || now () -. t0 +. !round_s < budget do
    let r0 = now () in
    round p ~workload;
    round_s := now () -. r0;
    incr reps
  done;
  let traced = if trace then [ (workload, traced_children p workload) ] else [] in
  let r = record p ~reps:!reps ~traced in
  let w = List.hd r.R.workloads in
  print_e2e r;
  print_layers w;
  write_outputs
    ~path:
      (Filename.concat out_dir
         (Printf.sprintf "%s-seed%d-trace%d.json" workload seed
            (if trace then 1 else 0)))
    r !(p.children);
  let metric name v unit_ =
    R.kv name (R.obj [ R.kv "value" (R.num v); R.kv "unit" (R.str unit_) ])
  in
  let metrics =
    if trace then
      List.map2
        (fun (name, v) (m : R.metric) -> metric name v m.R.unit_)
        w.R.layers R.layers
    else
      (* failed_frac travels as the line's own attempted/failed counts. *)
      List.filter_map
        (fun (name, (s : R.summary)) ->
          let m = R.metric name in
          if m.R.bound > 0.0 then Some (metric name (R.value m s) m.R.unit_) else None)
        w.R.metrics
  in
  let ok = correct w in
  print_endline
    (R.obj
       [
         R.kv "correct" (string_of_bool ok);
         R.kv "attempted" (string_of_int w.R.attempted);
         R.kv "failed" (string_of_int w.R.failed);
         R.kv "metrics" (R.obj metrics);
       ]);
  if ok then 0 else 1

let compare_cmd base_path next_path =
  match (R.read base_path, R.read next_path) with
  | Error e, _ | _, Error e ->
    prerr_endline e;
    2
  | Ok base, Ok next ->
    let c = R.compare_records ~base ~next in
    let t =
      Stdx.Table.create
        [ "workload"; "metric"; "unit"; "base value [q1, q3]";
          "new value [q1, q3]"; "delta"; "bound"; "verdict" ]
    in
    List.iter
      (fun (row : R.row) ->
        let m = row.R.metric in
        let cell (s : R.summary) =
          Printf.sprintf "%s [%s, %s]" (fmt (R.value m s)) (fmt s.R.q1) (fmt s.R.q3)
        in
        let b = R.value m row.R.base and n = R.value m row.R.next in
        let delta = if b = 0.0 then n -. b else (n -. b) /. b in
        Stdx.Table.add_row t
          [
            row.R.workload; m.R.name; m.R.unit_; cell row.R.base; cell row.R.next;
            Printf.sprintf "%+.2f%%" (100.0 *. delta);
            Printf.sprintf "%.0f%%" (100.0 *. m.R.bound);
            R.verdict_name row.R.verdict;
          ])
      c.R.rows;
    Stdx.Table.print t;
    if c.R.seeds_differ then
      print_endline "digests not compared: the records were made with different seeds";
    List.iter (Printf.printf "digest mismatch: %s\n") c.R.digest_mismatches;
    List.iter (Printf.printf "workload missing from one record: %s\n") c.R.missing;
    if R.regressed c then begin
      print_endline "REGRESSION";
      1
    end
    else 0

(* ------------------------------------------------------------------ *)
(* Command line *)

let usage () =
  prerr_endline
    "usage: main.exe --seed S [--out FILE]\n\
    \       main.exe --workload NAME --seed S --seconds T --trace 0|1\n\
    \       main.exe compare BASE.json NEW.json";
  2

let rec flags acc = function
  | k :: v :: rest when String.starts_with ~prefix:"--" k -> flags ((k, v) :: acc) rest
  | [] -> Some acc
  | _ -> None

let main args =
  match args with
  | [ "compare"; base; next ] -> compare_cmd base next
  | "child" :: rest -> (
    match flags [] rest with
    | None -> usage ()
    | Some fl -> (
      let get k = List.assoc k fl in
      match W.mode_of_name (get "--mode") with
      | None -> usage ()
      | Some mode ->
        let r =
          W.run ~workload:(get "--workload") ~seed:(int_of_string (get "--seed"))
            ~mode ~dir:(get "--dir")
        in
        print_endline (W.result_to_json r);
        0))
  | _ -> (
    match flags [] args with
    | None -> usage ()
    | Some fl -> (
      let int k = Option.map int_of_string (List.assoc_opt k fl) in
      match (List.assoc_opt "--workload" fl, int "--seed") with
      | _, None -> usage ()
      | None, Some seed -> full ~seed ~out:(List.assoc_opt "--out" fl)
      | Some workload, Some seed -> (
        let seconds = Option.map float_of_string (List.assoc_opt "--seconds" fl) in
        match (seconds, int "--trace") with
        | Some seconds, Some (0 | 1 as trace)
          when seconds > 0.0 && List.mem workload R.workload_names ->
          single ~workload ~seed ~seconds ~trace:(trace = 1)
        | _ -> usage ())))

let () =
  let code =
    try main (List.tl (Array.to_list Sys.argv)) with
    | Child_failed msg ->
      prerr_endline ("child failed: " ^ msg);
      2
    | Failure msg | Invalid_argument msg ->
      prerr_endline msg;
      2
  in
  exit code
