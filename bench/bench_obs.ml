(* Experiment O2: observability overhead.

   Runs the same (spec, adversary, faulty, rounds, seed) execution as a
   one-cell Sim.Campaign.exec, the path every countctl run takes: once
   with every sink off, and once the way a watched campaign runs it (a
   metrics registry, spans with their 1-in-16 round sampling, and a 1 s
   heartbeat). It checks that the outcomes are bit-identical and times
   the two sides in interleaved pairs of samples
   (Bench_common.paired): the record holds the median paired overhead,
   its quartiles and a verdict against the <= 5 % budget the
   observability layer is designed to.

   Rows mirror bench engine's A(12,3) headlines: benign (the throughput
   row) and split-brain (the hostile hot loop, where a slow span would
   hurt most). Results land in BENCH_obs.json. *)

let json_path = "BENCH_obs.json"

type row = {
  label : string;
  adversary : string;
  faulty : int list;
  rounds : int;
  paired : Bench_common.paired;
  node_rounds : int;
  identical : bool;
  sampled_rounds : int;
}

let measure (type s) ~label ~(spec : s Algo.Spec.t) ~adversary ~faulty
    ~rounds ~seed () =
  let schedule = Sim.Schedule.static ~adversary ~faulty ~rounds in
  let campaign ?metrics ?heartbeat ~spans () =
    (Sim.Campaign.exec ?metrics ?heartbeat ~spans ~jobs:1 ~prefix:"obs"
       ~n:spec.Algo.Spec.n
       ~horizon:(Sim.Campaign.Known (fun _ -> rounds))
       ~label:(fun _ -> label)
       1
       (fun cell _ ->
         let o =
           Sim.Engine.run ?metrics:cell.Sim.Campaign.metrics
             ~spans:cell.Sim.Campaign.spans ~mode:Sim.Engine.Full_horizon
             ~spec ~schedule ~seed ()
         in
         (o, o.Sim.Engine.rounds_simulated))).(0)
  in
  let metrics = Stdx.Metrics.create () in
  Out_channel.with_open_bin Filename.null @@ fun hb_oc ->
  let heartbeat = Stdx.Heartbeat.create ~label ~interval_s:1.0 ~out:hb_oc () in
  let off () = campaign ~spans:false () in
  let on () = campaign ~metrics ~heartbeat ~spans:true () in
  (* The first run of each side warms the kernel and gives the outcomes
     every timed run repeats. *)
  let off_o = off () and on_o = on () in
  let identical =
    Sim.Online.equal_verdict off_o.Sim.Engine.verdict on_o.Sim.Engine.verdict
    && off_o.Sim.Engine.rounds_simulated = on_o.Sim.Engine.rounds_simulated
    && off_o.Sim.Engine.early_exit = on_o.Sim.Engine.early_exit
    && off_o.Sim.Engine.recent_outputs = on_o.Sim.Engine.recent_outputs
    && Array.for_all2
         (fun a b -> spec.Algo.Spec.equal_state a b)
         off_o.Sim.Engine.final_states on_o.Sim.Engine.final_states
  in
  let sampled_rounds =
    match
      Stdx.Metrics.find (Stdx.Metrics.snapshot metrics) "engine.sampled_rounds"
    with
    | Some (Stdx.Metrics.Counter c) -> c
    | _ -> 0
  in
  let paired = Bench_common.paired ~off ~on in
  Stdx.Heartbeat.finish heartbeat;
  {
    label;
    adversary = Sim.Adversary.name adversary;
    faulty;
    rounds;
    paired;
    node_rounds = spec.Algo.Spec.n * off_o.Sim.Engine.rounds_simulated;
    identical;
    sampled_rounds;
  }

(* Node-rounds per second at the median of one side's per-pair seconds. *)
let nr_per_s r secs =
  float_of_int r.node_rounds /. Float.max 1e-9 (Bench_common.median secs)

let json_of_row r =
  Printf.sprintf
    "    {\"label\": %S, \"adversary\": %S, \"faulty\": [%s], \"rounds\": \
     %d,\n\
    \     \"off_node_rounds_per_s\": %.1f, \"on_node_rounds_per_s\": %.1f,\n\
    \     \"identical_outcomes\": %b, \"span_sampled_rounds\": %d,\n\
    \   %s}"
    r.label r.adversary
    (String.concat "," (List.map string_of_int r.faulty))
    r.rounds
    (nr_per_s r r.paired.off_s)
    (nr_per_s r r.paired.on_s)
    r.identical r.sampled_rounds
    (Bench_common.paired_json r.paired)

(* The record's verdict: over if any row is, within if every row is. *)
let verdict rows =
  let any v = List.exists (fun r -> r.paired.Bench_common.verdict = v) rows in
  if any "over" then "over" else if any "unresolved" then "unresolved"
  else "within"

let run () =
  Bench_common.section
    "Observability overhead - metrics, spans and heartbeat on a campaign cell";
  let a12_3 = (Bench_common.a12_3 ~c:1728).Counting.Boost.spec in
  let rows =
    [
      measure ~label:"A(12,3) benign" ~spec:a12_3
        ~adversary:(Sim.Adversary.benign ()) ~faulty:[] ~rounds:1200 ~seed:1
        ();
      measure ~label:"A(12,3) split-brain" ~spec:a12_3
        ~adversary:(Sim.Adversary.split_brain ()) ~faulty:[ 0; 4; 8 ]
        ~rounds:4000 ~seed:1 ();
    ]
  in
  let t =
    Stdx.Table.create
      [
        "instance"; "adversary"; "rounds"; "off nr/s"; "on nr/s"; "overhead";
        "quartiles"; "verdict"; "sampled"; "identical";
      ]
  in
  List.iter
    (fun r ->
      let p = r.paired in
      Stdx.Table.add_row t
        [
          r.label;
          r.adversary;
          string_of_int r.rounds;
          Printf.sprintf "%.0f" (nr_per_s r p.Bench_common.off_s);
          Printf.sprintf "%.0f" (nr_per_s r p.Bench_common.on_s);
          Printf.sprintf "%+.2f%%" p.Bench_common.median_pct;
          Printf.sprintf "%+.2f .. %+.2f" p.Bench_common.q1_pct
            p.Bench_common.q3_pct;
          p.Bench_common.verdict;
          string_of_int r.sampled_rounds;
          (if r.identical then "yes" else "NO");
        ])
    rows;
  Stdx.Table.print t;
  let all_identical = List.for_all (fun r -> r.identical) rows in
  let verdict = verdict rows in
  Printf.printf "\noverhead verdict (budget %.0f%%): %s; outcomes %s\n"
    Bench_common.budget_pct verdict
    (if all_identical then "bit-identical" else "DIVERGED");
  let oc = open_out json_path in
  Printf.fprintf oc
    "{\n\
    \  \"experiment\": \"observability-overhead\",\n\
    \  \"budget_pct\": %.1f,\n\
    \  \"verdict\": \"%s\",\n\
    \  \"all_identical_outcomes\": %b,\n\
    \  \"fingerprint\": %s,\n\
    \  \"measurements\": [\n%s\n  ]\n\
     }\n"
    Bench_common.budget_pct verdict all_identical
    (Bench_common.fingerprint_json ())
    (String.concat ",\n" (List.map json_of_row rows));
  close_out oc;
  Printf.printf "[observability overhead record written to %s]\n" json_path;
  if not all_identical then begin
    print_endline "ERROR: instrumented and bare outcomes differ!";
    exit 1
  end
