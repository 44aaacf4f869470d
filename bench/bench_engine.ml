(* Experiment E1: engine throughput and allocation profile.

   Runs fixed (spec, adversary, faulty, rounds, seed) executions over
   the full horizon and reports node-rounds/sec plus GC words allocated
   per node-round for each. The engine has one representation — packed
   state codes stepped by the spec codec's kernel, messages crafted by
   the adversary's code-space kernel — so there is nothing to compare
   against here; the boxed reference lives in the test suite.

   Headlines: benign throughput on A(12,3), and hostile throughput on
   A(12,3) under the split-brain equivocator — the adversary-kernel hot
   loop. Random-equivocate rows (A(12,3) and the Figure-2 tower A(36,7))
   give every recipient its own fresh random message from each faulty
   node, so the kernel is announced changed slots for every recipient
   and the adversary draws from the rng per message. The A(36,7) tower
   has one such row with a faulty node in every block (every block is
   revoted per recipient) and one with a single faulty node (one block
   is). A(36,7) under stuck with all seven faulty nodes sends every
   recipient the same codes: the row measures what faulty senders cost
   when the round's load announces their rows whole, next to the benign
   row's none. A greedy-confusion row measures the lookahead kernel,
   where crafting rather than stepping dominates.

   Kernel set-up rows time [fresh_kernel ()] itself on the Theorem 1
   towers A(4,1), A(12,3) and A(36,7) (modulus 2): the fixed cost an
   engine run pays before its first round when its domain holds no idle
   kernel for the codec, which would dominate short early-exiting runs.
   The throughput rows reuse their warm-up run's kernel, and are timed
   as the median of five samples of back-to-back runs
   (Bench_common.measure).

   Primitive rows time, the same way, the layers below the towers'
   rounds: one round (a [load] and [n] kernel steps, as the engine runs
   it) of the trivial n=1 and rand-counter n=12 counters, one
   phase-king step at N=36, one majority vote over 128 values and one
   exhaustive model check of follow-leader(3).

   Results land in BENCH_engine.json. *)

let json_path = "BENCH_engine.json"

type gc_profile = { minor_w_nr : float; major_w_nr : float }

type row = {
  label : string;
  n : int;
  adversary : string;
  faulty : int list;
  rounds : int;
  wall_s : float;
  node_rounds_per_s : float;
  gc : gc_profile;
}

let measure (type s) ~label ~(spec : s Algo.Spec.t) ~adversary ~faulty ~rounds
    ~seed () =
  let run () =
    Sim.Engine.run ~mode:Sim.Engine.Full_horizon ~spec
      ~schedule:(Sim.Schedule.static ~adversary ~faulty ~rounds)
      ~seed ()
  in
  (* One run first takes any lazy setup (the boost tower's shared lookup
     tables) and the kernel, which the timed runs reuse, off the clock,
     and gives the rounds every timed run simulates. *)
  let o = run () in
  let m = Bench_common.measure run in
  let nr = float_of_int (spec.Algo.Spec.n * o.Sim.Engine.rounds_simulated) in
  {
    label;
    n = spec.Algo.Spec.n;
    adversary = Sim.Adversary.name adversary;
    faulty;
    rounds;
    wall_s = m.Bench_common.seconds;
    node_rounds_per_s = nr /. Float.max 1e-9 m.Bench_common.seconds;
    gc =
      {
        minor_w_nr = m.Bench_common.minor_words /. nr;
        major_w_nr = m.Bench_common.major_words /. nr;
      };
  }

(* [fresh_kernel ()] cost. Cold: the first call on a freshly built tower,
   which also builds the tower's shared lookup tables at every level
   (median over [cold_reps] towers, one call each). Warm: any later
   call, which allocates only private scratch (sampled per call). Words
   are counted on one warm call between two minor collections; the
   instance is dead by the second, so the major count is just the
   arrays too large for the minor heap (the phase-king histograms), not
   promotion. *)
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
  let cold_reps = 15 in
  let cold_s =
    Bench_common.median
      (List.init cold_reps (fun _ ->
           let _, fresh = build () in
           (Bench_common.sample ~runs:1 fresh).Bench_common.seconds))
  in
  let tower_n, fresh = build () in
  ignore (fresh ());
  let warm_s = (Bench_common.measure fresh).Bench_common.seconds in
  (* The sample's own allocation, measured with nothing in between,
     after one discarded sample: the first after heavy allocation reads
     a few dozen major words off. *)
  ignore (Bench_common.sample ~runs:1 ignore);
  let probe = Bench_common.sample ~runs:1 ignore in
  let warm = Bench_common.sample ~runs:1 fresh in
  {
    tower;
    tower_n;
    cold_s;
    warm_s;
    warm_minor_words = warm.minor_words -. probe.minor_words;
    warm_major_words = warm.major_words -. probe.major_words;
  }

let primitive name f = (name, Bench_common.measure f)

(* One round as the engine runs it: one [load] of the round's packed
   state codes into the run's kernel, then [n] kernel steps over them. *)
let round (spec : _ Algo.Spec.t) =
  let codec = Option.get spec.Algo.Spec.codec in
  let rng = Stdx.Rng.create 1 in
  let codes =
    Array.init spec.Algo.Spec.n (fun _ -> codec.Algo.Spec.random_code rng)
  in
  let kernel = codec.Algo.Spec.fresh_kernel () in
  fun () ->
    kernel.Algo.Spec.load codes;
    for v = 0 to spec.Algo.Spec.n - 1 do
      ignore (Sys.opaque_identity (kernel.Algo.Spec.step ~self:v ~rng codes))
    done

let primitives () =
  let received =
    Array.init 36 (fun i -> if i mod 5 = 0 then None else Some (i mod 8))
  in
  let self = { Counting.Phase_king.a = Some 3; d = true } in
  let votes =
    let rng = Stdx.Rng.create 2 in
    Array.init 128 (fun _ -> Stdx.Rng.int rng 4)
  in
  let leader = Counting.Trivial.follow_leader ~n:3 ~c:2 in
  [
    primitive "round: trivial n=1" (round (Counting.Trivial.single ~c:2304));
    primitive "round: rand-counter n=12"
      (round (Counting.Rand_counter.make ~n:12 ~f:3));
    primitive "phase-king step N=36" (fun () ->
        Counting.Phase_king.step ~cap:8 ~big_n:36 ~big_f:7 ~index:4 ~self
          ~received);
    primitive "majority vote n=128" (fun () ->
        Algo.Vote.majority_int ~default:0 votes);
    primitive "model-check follow-leader(3)" (fun () ->
        Mc.Checker.evaluate (Mc.Space.create_exn leader ~faulty:[]));
  ]

let json_of_primitive (name, (m : Bench_common.sample)) =
  Printf.sprintf
    "    {\"name\": %S, \"ns_per_call\": %.1f, \"minor_words_per_call\": %.1f}"
    name (m.seconds *. 1e9) m.minor_words

let json_of_setup r =
  Printf.sprintf
    "    {\"tower\": %S, \"n\": %d, \"cold_first_s\": %.7f, \
     \"warm_median_s\": %.7f,\n\
    \     \"warm_minor_words\": %.0f, \"warm_major_words\": %.0f}"
    r.tower r.tower_n r.cold_s r.warm_s r.warm_minor_words r.warm_major_words

let json_of_row r =
  Printf.sprintf
    "    {\"label\": %S, \"n\": %d, \"adversary\": %S, \"faulty\": [%s],\n\
    \     \"rounds\": %d, \"wall_s\": %.6f, \"node_rounds_per_s\": %.1f,\n\
    \     \"minor_words_per_node_round\": %.2f, \
     \"major_words_per_node_round\": %.4f}"
    r.label r.n r.adversary
    (String.concat "," (List.map string_of_int r.faulty))
    r.rounds r.wall_s r.node_rounds_per_s r.gc.minor_w_nr r.gc.major_w_nr

let run () =
  Bench_common.section "Engine throughput - packed state codes, full horizon";
  let a41 = (Bench_common.a41 ~c:2).Counting.Boost.spec in
  let a12_3 = (Bench_common.a12_3 ~c:1728).Counting.Boost.spec in
  let a36_7 = (Bench_common.a36_7 ~c:2).Counting.Boost.spec in
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
      measure ~label:"A(12,3) random-equivocate" ~spec:a12_3
        ~adversary:(Sim.Adversary.random_equivocate ())
        ~faulty:[ 0; 4; 8 ] ~rounds:2000 ~seed:1 ();
      measure ~label:"A(36,7) benign" ~spec:a36_7
        ~adversary:(Sim.Adversary.benign ()) ~faulty:[] ~rounds:1000 ~seed:1
        ();
      measure ~label:"A(36,7) random-equivocate" ~spec:a36_7
        ~adversary:(Sim.Adversary.random_equivocate ())
        ~faulty:[ 0; 5; 10; 15; 20; 25; 30 ] ~rounds:1000 ~seed:1 ();
      measure ~label:"A(36,7) random-equivocate, 1 faulty" ~spec:a36_7
        ~adversary:(Sim.Adversary.random_equivocate ())
        ~faulty:[ 13 ] ~rounds:1000 ~seed:1 ();
      measure ~label:"A(36,7) stuck f=7" ~spec:a36_7
        ~adversary:(Sim.Adversary.stuck ())
        ~faulty:[ 0; 5; 10; 15; 20; 25; 30 ] ~rounds:1000 ~seed:1 ();
      (* The one-step lookahead: every round probes a private kernel
         once per (faulty sender, correct recipient, candidate), so
         crafting, not the engine's own step, is what this row
         measures. *)
      measure ~label:"A(12,3) greedy-confusion(2)" ~spec:a12_3
        ~adversary:(Sim.Adversary.greedy_confusion ~pool:2 ())
        ~faulty:[ 0; 4; 8 ] ~rounds:200 ~seed:1 ();
    ]
  in
  let t =
    Stdx.Table.create
      [ "instance"; "adversary"; "rounds"; "node-rounds/s"; "minor W/nr"; "major W/nr" ]
  in
  List.iter
    (fun r ->
      Stdx.Table.add_row t
        [
          r.label;
          r.adversary;
          string_of_int r.rounds;
          Printf.sprintf "%.0f" r.node_rounds_per_s;
          Printf.sprintf "%.2f" r.gc.minor_w_nr;
          Printf.sprintf "%.4f" r.gc.major_w_nr;
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
  Bench_common.subsection
    "Kernel set-up: fresh_kernel () per domain and codec";
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
  let prims = primitives () in
  Bench_common.subsection "Primitives: one call each";
  let pt = Stdx.Table.create [ "primitive"; "ns/call"; "minor W/call" ] in
  List.iter
    (fun (name, (m : Bench_common.sample)) ->
      Stdx.Table.add_row pt
        [
          name;
          Printf.sprintf "%.0f" (m.seconds *. 1e9);
          Printf.sprintf "%.1f" m.minor_words;
        ])
    prims;
  Stdx.Table.print pt;
  let headline = List.find (fun r -> r.label = "A(12,3) benign") rows in
  let hostile = List.find (fun r -> r.label = "A(12,3) split-brain") rows in
  Printf.printf "\nheadline: %.0f node-rounds/sec on A(12,3)\n"
    headline.node_rounds_per_s;
  Printf.printf
    "hostile:  %.0f node-rounds/sec on A(12,3)/split-brain, %.2f minor \
     words/nr\n"
    hostile.node_rounds_per_s hostile.gc.minor_w_nr;
  let oc = open_out json_path in
  Printf.fprintf oc
    "{\n\
    \  \"experiment\": \"engine-throughput\",\n\
    \  \"headline\": {\"instance\": %S, \"node_rounds_per_s\": %.1f},\n\
    \  \"hostile_headline\": {\"instance\": %S, \"adversary\": %S,\n\
    \               \"node_rounds_per_s\": %.1f,\n\
    \               \"minor_words_per_node_round\": %.2f},\n\
    \  \"measurements\": [\n%s\n  ],\n\
    \  \"kernel_setup\": [\n%s\n  ],\n\
    \  \"primitives\": [\n%s\n  ]\n\
     }\n"
    headline.label headline.node_rounds_per_s hostile.label hostile.adversary
    hostile.node_rounds_per_s hostile.gc.minor_w_nr
    (String.concat ",\n" (List.map json_of_row rows))
    (String.concat ",\n" (List.map json_of_setup setup))
    (String.concat ",\n" (List.map json_of_primitive prims));
  close_out oc;
  Printf.printf "[engine throughput record written to %s]\n" json_path
