(* Experiment E1: flat-state engine throughput and allocation profile.

   Runs the same (spec, adversary, faulty, rounds, seed) execution on
   three paths — the flat packed-code path (the spec's codec), the flat
   path with the adversary's flat kernel stripped (the boxed crafting
   bridge, [Adversary.without_flat]), and the fully boxed per-node path
   (codec stripped) — verifies all outcomes are identical, and reports
   node-rounds/sec plus GC words allocated per node-round for each.

   Headlines: benign throughput on A(12,3) (the boxed engine made that
   scale unaffordable), and hostile throughput on A(12,3) under the
   split-brain equivocator — the flat adversary-kernel hot loop. A
   greedy-confusion row measures the lookahead kernel, where crafting
   rather than stepping dominates.

   Kernel set-up rows time [fresh_kernel ()] itself on the Theorem 1
   towers A(4,1), A(12,3) and A(36,7) (modulus 2): the fixed cost every
   flat engine run pays before its first round, which dominates short
   early-exiting runs.

   Results land in BENCH_engine.json. *)

let json_path = "BENCH_engine.json"

type gc_profile = { minor_w_nr : float; major_w_nr : float }

type path = {
  wall_s : float;
  node_rounds_per_s : float;
  gc : gc_profile;
}

type row = {
  label : string;
  n : int;
  adversary : string;
  faulty : int list;
  rounds : int;
  identical : bool;  (** flat = bridged = boxed outcomes *)
  has_flat : bool;  (** the adversary ships a flat kernel *)
  flat : path;
  boxed : path;
  bridge : path option;  (** hostile rows only: forced boxed crafting *)
  flat_craft_phases : int;
  bridged_craft_phases : int;
}

let metrics = Stdx.Metrics.create ()

(* Wall clock and GC allocation deltas around one run. [Gc.minor_words]
   reads the allocation pointer, so the minor count is exact even when
   no collection happens during the run ([quick_stat] would quantise it
   to minor-GC granularity); allocation counts are deterministic, so a
   single pass suffices and the wall is tightened with extra reps by the
   caller. *)
let timed_gc f =
  let j0 = (Gc.quick_stat ()).Gc.major_words in
  let m0 = Gc.minor_words () in
  let t0 = Stdx.Metrics.wall_clock () in
  let r = f () in
  let wall = Stdx.Metrics.wall_clock () -. t0 in
  let m1 = Gc.minor_words () in
  let j1 = (Gc.quick_stat ()).Gc.major_words in
  (r, wall, m1 -. m0, j1 -. j0)

let measure (type s) ~label ~(spec : s Algo.Spec.t) ~adversary ~faulty ~rounds
    ~seed () =
  let boxed_spec = { spec with Algo.Spec.codec = None } in
  let run ?metrics sp adv () =
    Sim.Engine.run ?metrics ~mode:Sim.Engine.Full_horizon ~spec:sp
      ~adversary:adv ~faulty ~rounds ~seed ()
  in
  (* Warm-up pass so allocation of the flat buffers and any lazy setup is
     off the clock for every path. *)
  ignore
    (Sim.Engine.run ~mode:Sim.Engine.Full_horizon ~spec ~adversary ~faulty
       ~rounds:(min rounds 50) ~seed ());
  let node_rounds o =
    float_of_int (spec.Algo.Spec.n * o.Sim.Engine.rounds_simulated)
  in
  (* Wall = best of [reps] passes (first pass also yields outcome + GC),
     so one slow scheduler hiccup does not pollute the record. *)
  let profile ?coverage ~reps sp adv =
    let o, wall0, minor, major = timed_gc (run ?metrics:coverage sp adv) in
    let wall = ref wall0 in
    for _ = 2 to reps do
      let _, w, _, _ = timed_gc (run sp adv) in
      if w < !wall then wall := w
    done;
    Stdx.Metrics.observe ~buckets:Stdx.Metrics.time_buckets metrics
      "bench.engine_wall_s" !wall;
    let nr = node_rounds o in
    ( o,
      {
        wall_s = !wall;
        node_rounds_per_s = nr /. Float.max 1e-9 !wall;
        gc = { minor_w_nr = minor /. nr; major_w_nr = major /. nr };
      } )
  in
  let coverage = Stdx.Metrics.create () in
  let flat_o, flat = profile ~coverage ~reps:3 spec adversary in
  let boxed_o, boxed = profile ~reps:1 boxed_spec adversary in
  let bridge =
    (* The bridge only exists where crafting happens: with no faulty
       nodes the stripped adversary runs the very same execution. *)
    if faulty = [] then None
    else
      Some (profile ~reps:3 spec (Sim.Adversary.without_flat adversary))
  in
  let same o2 =
    Sim.Online.equal_verdict flat_o.Sim.Engine.verdict o2.Sim.Engine.verdict
    && flat_o.Sim.Engine.rounds_simulated = o2.Sim.Engine.rounds_simulated
    && flat_o.Sim.Engine.early_exit = o2.Sim.Engine.early_exit
    && flat_o.Sim.Engine.recent_outputs = o2.Sim.Engine.recent_outputs
    && Array.for_all2
         (fun a b -> spec.Algo.Spec.equal_state a b)
         flat_o.Sim.Engine.final_states o2.Sim.Engine.final_states
  in
  let counter name =
    match Stdx.Metrics.find (Stdx.Metrics.snapshot coverage) name with
    | Some (Stdx.Metrics.Counter c) -> c
    | _ -> 0
  in
  {
    label;
    n = spec.Algo.Spec.n;
    adversary = Sim.Adversary.name adversary;
    faulty;
    rounds;
    identical =
      same boxed_o
      && (match bridge with None -> true | Some (o, _) -> same o);
    has_flat = Sim.Adversary.has_flat adversary;
    flat;
    boxed;
    bridge = Option.map snd bridge;
    flat_craft_phases = counter "engine.flat_craft_phases";
    bridged_craft_phases = counter "engine.bridged_craft_phases";
  }

(* [fresh_kernel ()] cost. Cold: the first call on a freshly built tower,
   which also builds the tower's shared lookup tables at every level
   (median over [cold_reps] towers). Warm: any later call, which
   allocates only private scratch (median over [warm_batches] batches of
   [warm_batch] calls, per call). Words are counted on one warm call
   between two minor collections; the instance is dead by the second, so
   the major count is just the arrays too large for the minor heap (the
   phase-king histograms), not promotion. *)
type setup_row = {
  tower : string;
  tower_n : int;
  cold_s : float;
  warm_s : float;
  warm_minor_words : float;
  warm_major_words : float;
}

let kernel_setup ~tower levels =
  let build () =
    let (Algo.Spec.Packed spec) =
      Counting.Build.tower (Counting.Plan.plan_tower_exn ~target_c:2 levels)
    in
    match spec.Algo.Spec.codec with
    | Some codec -> (spec.Algo.Spec.n, codec.Algo.Spec.fresh_kernel)
    | None -> failwith (tower ^ ": no codec")
  in
  let time f =
    let t0 = Stdx.Metrics.wall_clock () in
    f ();
    Stdx.Metrics.wall_clock () -. t0
  in
  let median xs = Stdx.Stats.percentile 0.5 xs in
  let cold_reps = 15 and warm_batches = 21 and warm_batch = 100 in
  let cold_s =
    median
      (List.init cold_reps (fun _ ->
           let _, fresh = build () in
           time (fun () -> ignore (Sys.opaque_identity (fresh ())))))
  in
  let tower_n, fresh = build () in
  ignore (fresh ());
  let warm_s =
    median
      (List.init warm_batches (fun _ ->
           time (fun () ->
               for _ = 1 to warm_batch do
                 ignore (Sys.opaque_identity (fresh ()))
               done)
           /. float_of_int warm_batch))
  in
  let words f =
    Gc.minor ();
    let j0 = (Gc.quick_stat ()).Gc.major_words in
    let m0 = Gc.minor_words () in
    f ();
    let m1 = Gc.minor_words () in
    (* A domain's major-heap allocation reaches quick_stat only at its
       next minor collection. *)
    Gc.minor ();
    (m1 -. m0, (Gc.quick_stat ()).Gc.major_words -. j0)
  in
  (* The probe's own allocation, measured with nothing in between, after
     one discarded probe: the first after heavy allocation reads a few
     dozen major words off. *)
  ignore (words ignore);
  let minor0, major0 = words ignore in
  let minor, major = words (fun () -> ignore (Sys.opaque_identity (fresh ()))) in
  {
    tower;
    tower_n;
    cold_s;
    warm_s;
    warm_minor_words = minor -. minor0;
    warm_major_words = major -. major0;
  }

let json_of_setup r =
  Printf.sprintf
    "    {\"tower\": %S, \"n\": %d, \"cold_first_s\": %.7f, \
     \"warm_median_s\": %.7f,\n\
    \     \"warm_minor_words\": %.0f, \"warm_major_words\": %.0f}"
    r.tower r.tower_n r.cold_s r.warm_s r.warm_minor_words r.warm_major_words

let json_of_row r =
  let path_fields tag p =
    Printf.sprintf
      "\"%s_wall_s\": %.6f, \"%s_node_rounds_per_s\": %.1f,\n\
      \     \"%s_minor_words_per_node_round\": %.2f, \
       \"%s_major_words_per_node_round\": %.4f"
      tag p.wall_s tag p.node_rounds_per_s tag p.gc.minor_w_nr tag
      p.gc.major_w_nr
  in
  let bridge_fields =
    match r.bridge with
    | None -> ""
    | Some p -> Printf.sprintf "     %s,\n" (path_fields "bridge" p)
  in
  Printf.sprintf
    "    {\"label\": %S, \"n\": %d, \"adversary\": %S, \"faulty\": [%s],\n\
    \     \"rounds\": %d, \"identical_outcomes\": %b, \"has_flat_kernel\": \
     %b,\n\
    \     \"flat_craft_phases\": %d, \"bridged_craft_phases\": %d,\n\
    \     %s,\n%s     %s,\n\
    \     \"speedup\": %.2f}"
    r.label r.n r.adversary
    (String.concat "," (List.map string_of_int r.faulty))
    r.rounds r.identical r.has_flat r.flat_craft_phases r.bridged_craft_phases
    (path_fields "flat" r.flat) bridge_fields
    (path_fields "boxed" r.boxed)
    (r.boxed.wall_s /. Float.max 1e-9 r.flat.wall_s)

let run () =
  Bench_common.section
    "Flat-state engine - packed codes vs boxed states, full horizon";
  let a41 = (Bench_common.a41 ~c:2).Counting.Boost.spec in
  let a12_3 = (Bench_common.a12_3 ~c:1728).Counting.Boost.spec in
  let rows =
    [
      measure ~label:"A(4,1) benign" ~spec:a41
        ~adversary:(Sim.Adversary.benign ()) ~faulty:[] ~rounds:4000 ~seed:1
        ();
      measure ~label:"A(4,1) split-brain" ~spec:a41
        ~adversary:(Sim.Adversary.split_brain ()) ~faulty:[ 0 ] ~rounds:4000
        ~seed:1 ();
      measure ~label:"A(12,3) benign" ~spec:a12_3
        ~adversary:(Sim.Adversary.benign ()) ~faulty:[] ~rounds:1200 ~seed:1
        ();
      (* The hostile headline row: long enough that the steady-state
         hostile loop, not run setup, is what gets measured. *)
      measure ~label:"A(12,3) split-brain" ~spec:a12_3
        ~adversary:(Sim.Adversary.split_brain ()) ~faulty:[ 0; 4; 8 ]
        ~rounds:4000 ~seed:1 ();
      (* The one-step lookahead: every round steps a private kernel once
         per (faulty sender, correct recipient, candidate), so crafting,
         not the engine's own step, is what this row measures. *)
      measure ~label:"A(12,3) greedy-confusion(2)" ~spec:a12_3
        ~adversary:(Sim.Adversary.greedy_confusion ~pool:2 ())
        ~faulty:[ 0; 4; 8 ] ~rounds:200 ~seed:1 ();
    ]
  in
  let t =
    Stdx.Table.create
      [
        "instance"; "adversary"; "rounds"; "flat nr/s"; "bridge nr/s";
        "boxed nr/s"; "speedup"; "flat minW/nr"; "bridge minW/nr";
        "identical";
      ]
  in
  List.iter
    (fun r ->
      Stdx.Table.add_row t
        [
          r.label;
          r.adversary;
          string_of_int r.rounds;
          Printf.sprintf "%.0f" r.flat.node_rounds_per_s;
          (match r.bridge with
          | None -> "-"
          | Some p -> Printf.sprintf "%.0f" p.node_rounds_per_s);
          Printf.sprintf "%.0f" r.boxed.node_rounds_per_s;
          Printf.sprintf "%.1fx" (r.boxed.wall_s /. Float.max 1e-9 r.flat.wall_s);
          Printf.sprintf "%.2f" r.flat.gc.minor_w_nr;
          (match r.bridge with
          | None -> "-"
          | Some p -> Printf.sprintf "%.2f" p.gc.minor_w_nr);
          (if r.identical then "yes" else "NO");
        ])
    rows;
  Stdx.Table.print t;
  let setup =
    [
      kernel_setup ~tower:"A(4,1)" [ { Counting.Plan.k = 4; big_f = 1 } ];
      kernel_setup ~tower:"A(12,3)"
        [ { Counting.Plan.k = 4; big_f = 1 }; { k = 3; big_f = 3 } ];
      kernel_setup ~tower:"A(36,7)" Counting.Plan.figure2_levels;
    ]
  in
  Bench_common.subsection "Kernel set-up: fresh_kernel () per engine run";
  let st =
    Stdx.Table.create
      [ "tower"; "cold first us"; "warm us"; "warm minor W"; "warm major W" ]
  in
  List.iter
    (fun r ->
      Stdx.Table.add_row st
        [
          r.tower;
          Printf.sprintf "%.1f" (r.cold_s *. 1e6);
          Printf.sprintf "%.1f" (r.warm_s *. 1e6);
          Printf.sprintf "%.0f" r.warm_minor_words;
          Printf.sprintf "%.0f" r.warm_major_words;
        ])
    setup;
  Stdx.Table.print st;
  let headline = List.find (fun r -> r.label = "A(12,3) benign") rows in
  let hostile = List.find (fun r -> r.label = "A(12,3) split-brain") rows in
  let hostile_bridge = Option.get hostile.bridge in
  let alloc_reduction =
    hostile_bridge.gc.minor_w_nr /. Float.max 1e-9 hostile.flat.gc.minor_w_nr
  in
  Printf.printf
    "\nheadline: %.0f node-rounds/sec flat on A(12,3) (boxed: %.0f, %.1fx)\n"
    headline.flat.node_rounds_per_s headline.boxed.node_rounds_per_s
    (headline.boxed.wall_s /. Float.max 1e-9 headline.flat.wall_s);
  Printf.printf
    "hostile:  %.0f node-rounds/sec flat on A(12,3)/split-brain\n\
    \          (%.2f minor words/nr vs %.2f bridged: %.0fx less allocation)\n"
    hostile.flat.node_rounds_per_s hostile.flat.gc.minor_w_nr
    hostile_bridge.gc.minor_w_nr alloc_reduction;
  let all_identical = List.for_all (fun r -> r.identical) rows in
  let oc = open_out json_path in
  Printf.fprintf oc
    "{\n\
    \  \"experiment\": \"flat-vs-boxed-engine\",\n\
    \  \"headline\": {\"instance\": %S, \"node_rounds_per_s\": %.1f,\n\
    \               \"boxed_node_rounds_per_s\": %.1f, \"speedup\": %.2f},\n\
    \  \"hostile_headline\": {\"instance\": %S, \"adversary\": %S,\n\
    \               \"node_rounds_per_s\": %.1f,\n\
    \               \"minor_words_per_node_round\": %.2f,\n\
    \               \"bridge_minor_words_per_node_round\": %.2f,\n\
    \               \"minor_alloc_reduction_vs_bridge\": %.1f},\n\
    \  \"all_identical_outcomes\": %b,\n\
    \  \"measurements\": [\n%s\n  ],\n\
    \  \"kernel_setup\": [\n%s\n  ],\n\
    \  \"metrics\": %s\n\
     }\n"
    headline.label headline.flat.node_rounds_per_s
    headline.boxed.node_rounds_per_s
    (headline.boxed.wall_s /. Float.max 1e-9 headline.flat.wall_s)
    hostile.label hostile.adversary hostile.flat.node_rounds_per_s
    hostile.flat.gc.minor_w_nr hostile_bridge.gc.minor_w_nr alloc_reduction
    all_identical
    (String.concat ",\n" (List.map json_of_row rows))
    (String.concat ",\n" (List.map json_of_setup setup))
    (Stdx.Metrics.to_json (Stdx.Metrics.snapshot metrics));
  close_out oc;
  Printf.printf "[engine throughput record written to %s]\n" json_path;
  if not all_identical then begin
    print_endline "ERROR: flat, bridged and boxed outcomes differ!";
    exit 1
  end
