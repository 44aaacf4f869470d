(* Kernel reuse across engine runs.

   Sim.Engine.run keeps a finished run's kernel in its domain and hands
   it to the next run over the same codec, on the strength of
   Algo.Spec.kernel's rule that [load] is the reset. Every check here
   compares runs on a possibly reused kernel with solo runs of a freshly
   built, structurally equal spec, whose new codec means a cold kernel:
   after an unrelated run, with two specs sharing the domain, after a
   run whose crafter raised, and with a run nested in another's trace
   hook. The families cover the flat tower kernel (A(4,1), A(12,3)),
   the generic kernel (an ablated tower, the sampled pulling counter, a
   derived codec) and the project_counter wrapper. A deliberately broken
   kernel, whose [load] leaves a counter behind, shows that the checks
   see leftover state; a campaign at REPRO_JOBS checks reuse inside
   pool domains. *)

let check = Alcotest.check
let case name f = Alcotest.test_case name `Quick f

type family = F : string * (unit -> 's Algo.Spec.t) -> family

let single = Counting.Trivial.single ~c:2304

let a41 ~c = Counting.Boost.construct ~inner:single ~k:4 ~big_f:1 ~big_c:c

let a12_3 () =
  (Counting.Boost.construct ~inner:(a41 ~c:960).Counting.Boost.spec ~k:3
     ~big_f:3 ~big_c:2)
    .Counting.Boost.spec

let leader_f1 () =
  Algo.Combinators.with_claimed_resilience
    (Counting.Trivial.follow_leader ~n:4 ~c:5)
    ~f:1

(* Follow-leader mod 1000 whose kernel counts the loads it has served,
   never resetting the count, and adds the count to each step's result.
   A reused kernel is off by the previous runs' loads, which no run here
   makes a multiple of 1000. *)
let broken () =
  let c = 1000 in
  let spec =
    Algo.Combinators.with_claimed_resilience
      (Counting.Trivial.follow_leader ~n:4 ~c)
      ~f:1
  in
  let codec = Option.get spec.Algo.Spec.codec in
  let fresh_kernel () =
    let kernel = codec.Algo.Spec.fresh_kernel () and loads = ref 0 in
    {
      kernel with
      Algo.Spec.load =
        (fun v ->
          incr loads;
          kernel.Algo.Spec.load v);
      step =
        (fun ~self ~rng v ->
          (kernel.Algo.Spec.step ~self ~rng v + !loads) mod c);
    }
  in
  { spec with Algo.Spec.codec = Some { codec with Algo.Spec.fresh_kernel } }

let families =
  [
    F ("A(4,1)", fun () -> (a41 ~c:2).Counting.Boost.spec);
    F ("A(12,3)", a12_3);
    F
      ( "ablated A(4,1)",
        fun () ->
          (Counting.Boost.construct_ablated
             ~ablation:Counting.Boost.Naive_phase_king ~inner:single ~k:4
             ~big_f:1 ~big_c:2)
            .Counting.Boost.spec );
    F
      ( "sampled A(12,3)",
        fun () ->
          (Pulling.Sampled.construct ~inner:(a41 ~c:960).Counting.Boost.spec
             ~k:3 ~big_f:3 ~big_c:8 ~samples:4)
            .Pulling.Sampled.spec );
    F
      ( "derived codec",
        fun () ->
          Algo.Spec.with_derived_codec
            { (leader_f1 ()) with Algo.Spec.codec = None } );
    F
      ( "A(4,1) mod 2",
        fun () ->
          Algo.Combinators.project_counter (a41 ~c:4).Counting.Boost.spec
            ~modulus:2 );
  ]

(* What a run's outcome says, with final states as codes so outcomes of
   every family compare alike. *)
type summary = {
  verdict : Sim.Online.verdict;
  rounds_simulated : int;
  phases : Sim.Engine.phase_report list;
  final_states : int array;
  recent_outputs : (int * int array) list;
}

let summary (spec : 's Algo.Spec.t) (o : 's Sim.Engine.outcome) =
  let codec = Option.get spec.Algo.Spec.codec in
  {
    verdict = o.Sim.Engine.verdict;
    rounds_simulated = o.Sim.Engine.rounds_simulated;
    phases = o.Sim.Engine.phases;
    final_states =
      Array.map codec.Algo.Spec.encode_state o.Sim.Engine.final_states;
    recent_outputs = o.Sim.Engine.recent_outputs;
  }

(* The fields in which [got] differs from [want], prefixed by [ctx]. *)
let diff ctx (want : summary) (got : summary) =
  List.filter_map
    (fun (field, same) -> if same then None else Some (ctx ^ ": " ^ field))
    [
      ("verdict", Sim.Online.equal_verdict want.verdict got.verdict);
      ("rounds_simulated", want.rounds_simulated = got.rounds_simulated);
      ("phases", want.phases = got.phases);
      ("final_states", want.final_states = got.final_states);
      ("recent_outputs", want.recent_outputs = got.recent_outputs);
    ]

(* Run [j]: a two-phase schedule with one corruption event, drawn from
   seed [j] over the standard suite, run from seed [j]. *)
let run ?trace (spec : 's Algo.Spec.t) j =
  let schedule =
    Sim.Schedule.random ~spec ~adversaries:(Sim.Adversary.standard_suite ())
      ~phases:2 ~phase_rounds:40 ~events:1 ~event_margin:16 ~seed:j ()
  in
  summary spec (Sim.Engine.run ?trace ~spec ~schedule ~seed:j ())

(* Run [j] with a cold kernel. Every check makes its solo runs first:
   one made mid-sequence would displace the idle kernel that the
   sequence's next run is to reuse. *)
let solo build j = run (build ()) j

(* Run B right after an unrelated run A of the same spec. *)
let after_unrelated (F (_, build)) =
  let want = solo build 2 in
  let spec = build () in
  ignore (run spec 1);
  let got = run spec 2 in
  diff "run 2 after run 1" want got

(* Two specs, alternating every two runs, so each run follows one of its
   own spec or of the other. *)
let alternating (F (_, build1)) (F (_, build2)) =
  let order =
    [ (1, 1); (1, 2); (2, 1); (2, 2); (1, 3); (1, 4); (2, 3); (2, 4) ]
  in
  let pick which b1 b2 = if which = 1 then b1 else b2 in
  let wants =
    List.map (fun (which, j) -> pick which (solo build1) (solo build2) j) order
  in
  let s1 = build1 () and s2 = build2 () in
  let gots =
    List.map (fun (which, j) -> pick which (run s1) (run s2) j) order
  in
  List.concat
    (List.map2
       (fun ((which, j), want) got ->
         diff (Printf.sprintf "spec %d, run %d" which j) want got)
       (List.combine order wants) gots)

exception Crafter_raised

(* Random equivocation whose crafter raises at round 5. *)
let raising () =
  let base = Sim.Adversary.random_equivocate () in
  {
    base with
    Sim.Adversary.name = "raises at round 5";
    fresh_flat =
      (fun env ->
        let crafter = base.Sim.Adversary.fresh_flat env in
        {
          Sim.Adversary.craft_flat =
            (fun ~rng ~round ~states ~faulty ~out ->
              if round = 5 then raise Crafter_raised;
              crafter.Sim.Adversary.craft_flat ~rng ~round ~states ~faulty
                ~out);
        });
  }

let run_raising spec =
  match
    Sim.Engine.run ~spec
      ~schedule:
        (Sim.Schedule.static ~adversary:(raising ()) ~faulty:[ 0 ] ~rounds:40)
      ~seed:3 ()
  with
  | _ -> Alcotest.fail "the crafter did not raise"
  | exception Crafter_raised -> ()

(* A run whose crafter raises mid-round, then clean runs. *)
let after_raise (F (_, build)) =
  let want2 = solo build 2 in
  let want3 = solo build 3 in
  let spec = build () in
  ignore (run spec 1);
  run_raising spec;
  let got2 = run spec 2 in
  let got3 = run spec 3 in
  diff "run 2 after the raise" want2 got2
  @ diff "run 3 after the raise" want3 got3

(* Run 3 nested in run 2's trace hook at round 4, both after run 1. *)
let nested (F (_, build)) =
  let want2 = solo build 2 in
  let want3 = solo build 3 in
  let spec = build () in
  ignore (run spec 1);
  let inner = ref None in
  let trace ~round ~states:_ ~outputs:_ =
    if round = 4 then inner := Some (run spec 3)
  in
  let outer = run ~trace spec 2 in
  diff "outer run 2" want2 outer
  @ diff "nested run 3" want3 (Option.get !inner)

let checks =
  [
    ("run after an unrelated run", after_unrelated);
    ("run after a raising crafter", after_raise);
    ("run nested in a trace hook", nested);
  ]

let no_diff label = function
  | [] -> ()
  | diffs -> Alcotest.failf "%s: %s" label (String.concat "; " diffs)

let family_cases =
  List.concat_map
    (fun (F (label, _) as fam) ->
      List.map
        (fun (name, check) ->
          case (Printf.sprintf "%s: %s" label name) (fun () ->
              no_diff label (check fam)))
        checks)
    families

(* Each family alternates with the next, the last with the first. *)
let alternating_cases =
  List.mapi
    (fun i (F (label1, _) as f1) ->
      let (F (label2, _) as f2) =
        List.nth families ((i + 1) mod List.length families)
      in
      let label = Printf.sprintf "%s and %s alternate" label1 label2 in
      case label (fun () -> no_diff label (alternating f1 f2)))
    families

(* Every check catches the broken kernel's leftover count. *)
let test_broken_kernel_caught () =
  let fam = F ("broken", broken) in
  List.iter
    (fun (name, diffs) ->
      check Alcotest.bool (name ^ " catches the broken kernel") true
        (diffs <> []))
    (("alternating runs", alternating fam (List.hd families))
    :: List.map (fun (name, check) -> (name, check fam)) checks)

(* When the engine builds a kernel: once per domain and codec, and again
   when a run nested in a hook, a raising run or another codec's run
   has left no idle one. Counted through a codec whose factory counts. *)
let test_kernel_made_when () =
  let base = (a41 ~c:2).Counting.Boost.spec in
  let codec = Option.get base.Algo.Spec.codec in
  let made = ref 0 in
  let spec =
    {
      base with
      Algo.Spec.codec =
        Some
          {
            codec with
            Algo.Spec.fresh_kernel =
              (fun () ->
                incr made;
                codec.Algo.Spec.fresh_kernel ());
          };
    }
  in
  let expect label n = check Alcotest.int label n !made in
  ignore (run spec 1);
  expect "first run builds one" 1;
  ignore (run spec 2);
  expect "second run reuses it" 1;
  let trace ~round ~states:_ ~outputs:_ =
    if round = 0 then ignore (run spec 3)
  in
  ignore (run ~trace spec 2);
  expect "a nested run builds its own" 2;
  ignore (run spec 4);
  expect "then one is idle again" 2;
  run_raising spec;
  ignore (run spec 5);
  expect "a raising run drops the kernel it took" 3;
  ignore (run base 1);
  ignore (run spec 6);
  expect "another codec's run displaces it" 4

(* A campaign at jobs 1 and REPRO_JOBS whose first half of cells runs
   one shared spec and second half another, so pool domains reuse
   kernels across cells and swap them between specs: every cell equals
   its solo run. *)
let test_pool_domains () =
  let build1 () = (a41 ~c:2).Counting.Boost.spec in
  let s1 = build1 () and s2 = a12_3 () in
  let cells = 12 in
  let first i = i < cells / 2 in
  let solo_cell i = if first i then solo build1 i else solo a12_3 i in
  let expected = Array.init cells solo_cell in
  List.iter
    (fun jobs ->
      let got =
        Sim.Campaign.exec ~jobs ~prefix:"reuse" ~n:12
          ~horizon:(fun _ -> 160)
          ~label:string_of_int cells
          (fun _ i ->
            let s = if first i then run s1 i else run s2 i in
            (s, s.rounds_simulated))
      in
      Array.iteri
        (fun i want ->
          no_diff
            (Printf.sprintf "jobs=%d" jobs)
            (diff (Printf.sprintf "cell %d" i) want got.(i)))
        expected)
    (List.sort_uniq compare [ 1; Test_flat.parallel_jobs ])

let suite =
  [
    ( "sim.kernel_reuse",
      family_cases @ alternating_cases
      @ [
          case "the checks catch a load that leaves a count behind"
            test_broken_kernel_caught;
          case "the engine builds a kernel only when none is idle"
            test_kernel_made_when;
          case "campaign cells reuse kernels at REPRO_JOBS" test_pool_domains;
        ] );
  ]
