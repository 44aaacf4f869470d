(* Tests for the adversarial schedule hunter: badness ordering and
   classification, the shrink lattice (qcheck: every candidate is valid
   and strictly smaller), schedule JSON round-trips, hunt determinism at
   any jobs count, and the corpus write -> read -> replay loop — plus
   the committed regression corpus under test/corpus/. *)

let check = Alcotest.check
let case name f = Alcotest.test_case name `Quick f

let qcheck ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

let rejects label f =
  check Alcotest.bool label true
    (try
       ignore (f ());
       false
     with Invalid_argument _ -> true)

let parallel_jobs =
  match Sys.getenv_opt "REPRO_JOBS" with
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some j when j >= 1 -> j
    | _ -> 4)
  | None -> 4

let leader = Counting.Trivial.follow_leader ~n:4 ~c:5

(* Over-claimed resilience: follow-leader genuinely tolerates only
   non-leader faults, so claiming f = 1 gives the hunter a real
   counterexample (leader node 0 faulty under a hostile strategy). *)
let weak_leader = Algo.Combinators.with_claimed_resilience leader ~f:1

(* One physical registry per suite run: schedules generated, mutated,
   serialised and replayed against the same adversary values, so
   structural equality never reaches two distinct closures. *)
let adversaries = Sim.Adversary.standard_suite ()

(* ------------------------------------------------------------------ *)
(* Satellite regression: Schedule.validate must reject zero horizons    *)
(* ------------------------------------------------------------------ *)

let test_validate_rejects_zero_horizon () =
  let zero_phase duration =
    { Sim.Schedule.adversary = Sim.Adversary.benign (); faulty = []; duration }
  in
  rejects "all-duration-0 schedule" (fun () ->
      Sim.Schedule.validate ~spec:weak_leader
        { Sim.Schedule.phases = [ zero_phase 0; zero_phase 0 ]; events = [] });
  (match
     Sim.Schedule.validate ~spec:weak_leader
       { Sim.Schedule.phases = [ zero_phase 0 ]; events = [] }
   with
  | exception Invalid_argument msg ->
    check Alcotest.bool "error names the zero horizon" true
      (Astring.String.is_infix ~affix:"zero-round horizon" msg)
  | _ -> Alcotest.fail "accepted a zero-round schedule");
  (* one empty phase among non-empty ones is still fine *)
  check Alcotest.int "zero-duration phase within a real horizon ok" 10
    (Sim.Schedule.total_rounds
       (Sim.Schedule.validate ~spec:weak_leader
          { Sim.Schedule.phases = [ zero_phase 0; zero_phase 10 ]; events = [] }))

(* ------------------------------------------------------------------ *)
(* Badness order, score, classification                                 *)
(* ------------------------------------------------------------------ *)

let b ~failed ~ratio ~clamped =
  {
    Sim.Hunt.failed_phases = failed;
    worst_ratio = ratio;
    clamped_events = clamped;
  }

let test_badness_order () =
  let cmp = Sim.Hunt.compare_badness in
  check Alcotest.bool "failure dominates ratio" true
    (cmp (b ~failed:1 ~ratio:0.0 ~clamped:0) (b ~failed:0 ~ratio:9.9 ~clamped:5)
    > 0);
  check Alcotest.bool "ratio dominates clamping" true
    (cmp (b ~failed:0 ~ratio:1.2 ~clamped:0) (b ~failed:0 ~ratio:0.8 ~clamped:7)
    > 0);
  check Alcotest.int "equal badness" 0
    (cmp (b ~failed:0 ~ratio:0.5 ~clamped:1) (b ~failed:0 ~ratio:0.5 ~clamped:1));
  check Alcotest.bool "score monotone along the order" true
    (Sim.Hunt.score (b ~failed:1 ~ratio:0.0 ~clamped:0)
    > Sim.Hunt.score (b ~failed:0 ~ratio:1.2 ~clamped:9))

(* ------------------------------------------------------------------ *)
(* Shrink lattice (qcheck)                                              *)
(* ------------------------------------------------------------------ *)

let random_schedule seed =
  Sim.Schedule.random ~spec:weak_leader ~adversaries ~phases:3 ~phase_rounds:40
    ~events:3 ~max_victims:3 ~event_margin:4 ~seed ()

(* Every shrink candidate of a valid schedule validates and is strictly
   smaller under Schedule.size — the termination argument for the
   hunt's greedy descent. *)
let test_shrink_candidates_qcheck =
  qcheck "shrink candidates validate and strictly shrink" QCheck.small_nat
    (fun seed ->
      let s = random_schedule seed in
      let size = Sim.Schedule.size s in
      let candidates =
        Sim.Hunt.shrink_candidates ~margin:4 ~min_duration:8 s
      in
      candidates <> []
      && List.for_all
           (fun cand ->
             Sim.Schedule.size cand < size
             &&
             match Sim.Schedule.validate ~spec:weak_leader cand with
             | _ -> true
             | exception Invalid_argument _ -> false)
           candidates)

let test_shrink_steps_unit () =
  let stuck = Sim.Adversary.stuck () in
  let s =
    Sim.Schedule.validate ~spec:weak_leader
      {
        Sim.Schedule.phases =
          [
            { Sim.Schedule.adversary = stuck; faulty = [ 0 ]; duration = 40 };
            { Sim.Schedule.adversary = stuck; faulty = [ 2 ]; duration = 20 };
          ];
        events =
          [
            { Sim.Schedule.round = 5; victims = 2 };
            { Sim.Schedule.round = 45; victims = 1 };
          ];
      }
  in
  (* drop_phase 0: events shift back by the dropped duration, events of
     the dropped phase disappear *)
  (match Sim.Schedule.drop_phase s 0 with
  | Some s' ->
    check Alcotest.int "phase dropped" 1 (List.length s'.Sim.Schedule.phases);
    check
      (Alcotest.list Alcotest.int)
      "event inside dropped phase gone, later event shifted" [ 5 ]
      (List.map (fun (e : Sim.Schedule.event) -> e.Sim.Schedule.round)
         s'.Sim.Schedule.events)
  | None -> Alcotest.fail "drop_phase 0 must apply");
  (* never drops the last remaining phase *)
  let single =
    { Sim.Schedule.phases = [ List.hd s.Sim.Schedule.phases ]; events = [] }
  in
  check Alcotest.bool "last phase is kept" true
    (Sim.Schedule.drop_phase single 0 = None);
  (* halve_duration respects the floor *)
  (match Sim.Schedule.halve_duration ~floor:8 ~margin:2 s 0 with
  | Some s' ->
    check Alcotest.int "duration halved" 20
      (List.hd s'.Sim.Schedule.phases).Sim.Schedule.duration
  | None -> Alcotest.fail "halve_duration must apply at 40");
  (match Sim.Schedule.halve_duration ~floor:25 s 0 with
  | Some s' ->
    check Alcotest.int "halving clamps at the floor" 25
      (List.hd s'.Sim.Schedule.phases).Sim.Schedule.duration
  | None -> Alcotest.fail "halving above the floor must apply");
  check Alcotest.bool "halve_duration refuses at the floor" true
    (Sim.Schedule.halve_duration ~floor:40 s 0 = None);
  (* halve_victims bottoms out at one victim *)
  (match Sim.Schedule.halve_victims s 0 with
  | Some s' ->
    check Alcotest.int "victims halved" 1
      (List.hd s'.Sim.Schedule.events).Sim.Schedule.victims
  | None -> Alcotest.fail "halve_victims must apply at 2");
  check Alcotest.bool "halve_victims refuses at 1" true
    (Sim.Schedule.halve_victims s 1 = None);
  (* drop_faulty removes exactly one id *)
  match Sim.Schedule.drop_faulty s ~phase:0 ~index:0 with
  | Some s' ->
    check
      (Alcotest.list Alcotest.int)
      "faulty id dropped" []
      (List.hd s'.Sim.Schedule.phases).Sim.Schedule.faulty
  | None -> Alcotest.fail "drop_faulty must apply"

(* ------------------------------------------------------------------ *)
(* Schedule JSON round-trip                                             *)
(* ------------------------------------------------------------------ *)

let test_schedule_json_round_trip () =
  List.iter
    (fun seed ->
      let s = random_schedule seed in
      let json = Sim.Schedule.to_json s in
      match Sim.Schedule.of_json ~adversaries json with
      | Error msg -> Alcotest.failf "seed %d did not parse back: %s" seed msg
      | Ok s' ->
        check Alcotest.string
          (Printf.sprintf "seed %d round-trips" seed)
          json (Sim.Schedule.to_json s');
        check Alcotest.string
          (Printf.sprintf "seed %d same description" seed)
          (Sim.Schedule.describe s) (Sim.Schedule.describe s'))
    [ 1; 2; 3; 4; 5 ]

let test_schedule_json_unknown_adversary () =
  let json =
    "{\"phases\":[{\"adversary\":\"warp-core\",\"faulty\":[],\"duration\":10}],\"events\":[]}"
  in
  match Sim.Schedule.of_json ~adversaries json with
  | Ok _ -> Alcotest.fail "accepted an unknown adversary name"
  | Error msg ->
    check Alcotest.bool "error names the stranger" true
      (Astring.String.is_infix ~affix:"warp-core" msg);
    check Alcotest.bool "error lists the known names" true
      (Astring.String.is_infix ~affix:"stuck" msg
      && Astring.String.is_infix ~affix:"split-brain" msg)

(* ------------------------------------------------------------------ *)
(* The hunt itself                                                      *)
(* ------------------------------------------------------------------ *)

let hunt_config ?(jobs = 1) ?(trials = 24) () =
  Sim.Hunt.Config.(
    default |> with_trials trials |> with_phases 2 |> with_phase_rounds 60
    |> with_events 1 |> with_time_bound 8 |> with_shrink_budget 64
    |> with_jobs jobs)

let run_hunt ?jobs ?trials () =
  Sim.Hunt.run ~config:(hunt_config ?jobs ?trials ()) ~spec:weak_leader
    ~adversaries ()

let test_hunt_finds_and_shrinks () =
  let report = run_hunt () in
  check Alcotest.bool "over-claimed resilience is caught" true
    (report.Sim.Hunt.hits <> []);
  check Alcotest.bool "every hit failed re-stabilisation" true
    (List.for_all
       (fun (h : _ Sim.Hunt.hit) -> h.Sim.Hunt.cls = Sim.Hunt.Failed)
       report.Sim.Hunt.hits);
  check Alcotest.bool "executions cover trials plus shrinking" true
    (report.Sim.Hunt.executions
    = report.Sim.Hunt.trials
      + List.fold_left
          (fun acc (h : _ Sim.Hunt.hit) -> acc + h.Sim.Hunt.shrink_steps)
          0 report.Sim.Hunt.hits);
  check Alcotest.bool "worst hit reported" true
    (report.Sim.Hunt.worst <> None);
  List.iter
    (fun (h : _ Sim.Hunt.hit) ->
      check Alcotest.bool
        (Printf.sprintf "trial %d shrank strictly" h.Sim.Hunt.trial)
        true
        (h.Sim.Hunt.size < h.Sim.Hunt.original_size
        && h.Sim.Hunt.shrink_kept > 0);
      check Alcotest.bool
        (Printf.sprintf "trial %d reproducer still fails" h.Sim.Hunt.trial)
        true
        (h.Sim.Hunt.badness.Sim.Hunt.failed_phases > 0))
    report.Sim.Hunt.hits;
  (* each shrunk reproducer stands alone: re-running it from its plain
     data reproduces the recorded badness *)
  List.iter
    (fun ((e : _ Sim.Hunt.Corpus.entry), b, reproduced) ->
      check Alcotest.int
        (Printf.sprintf "trial %d badness reproduces" e.Sim.Hunt.Corpus.trial)
        0
        (Sim.Hunt.compare_badness b e.Sim.Hunt.Corpus.badness);
      check Alcotest.bool "replay reports it" true reproduced)
    (Sim.Hunt.Corpus.replay ~spec:weak_leader
       ~entries:
         (Sim.Hunt.Corpus.of_report ~spec:weak_leader ~hunt_seed:1 report)
       ())

(* A spec honouring its claimed resilience yields no hits: follow-leader
   with its true f = 0 claim never fails, exceeds no 1000-round bound,
   and clamps nothing. *)
let test_hunt_clean_spec_no_hits () =
  let config =
    Sim.Hunt.Config.(
      default |> with_trials 8 |> with_phases 2 |> with_phase_rounds 60
      |> with_events 1 |> with_time_bound 1000)
  in
  let report = Sim.Hunt.run ~config ~spec:leader ~adversaries () in
  check Alcotest.int "no hits on an honest spec" 0
    (List.length report.Sim.Hunt.hits);
  check Alcotest.int "one execution per trial" report.Sim.Hunt.trials
    report.Sim.Hunt.executions

let corpus_fingerprint report =
  String.concat "\n"
    (List.map Sim.Hunt.Corpus.entry_to_json
       (Sim.Hunt.Corpus.of_report ~spec:weak_leader ~hunt_seed:1 report))

(* The hunt — including every shrunk reproducer — is byte-identical at
   any jobs count. *)
let test_hunt_jobs_determinism () =
  let fingerprint ?jobs () = corpus_fingerprint (run_hunt ?jobs ()) in
  let reference = fingerprint ~jobs:1 () in
  check Alcotest.bool "some reproducer to compare" true (reference <> "");
  List.iter
    (fun jobs ->
      check Alcotest.string
        (Printf.sprintf "corpus identical at jobs=%d" jobs)
        reference
        (fingerprint ~jobs ()))
    [ 2; parallel_jobs ]

let test_hunt_rejects_bad_config () =
  let boom config =
    ignore (Sim.Hunt.run ~config ~spec:weak_leader ~adversaries ())
  in
  rejects "trials < 1" (fun () ->
      boom Sim.Hunt.Config.(default |> with_trials 0));
  rejects "near_bound <= 0" (fun () ->
      boom Sim.Hunt.Config.(default |> with_near_bound 0.0));
  rejects "negative shrink budget" (fun () ->
      boom Sim.Hunt.Config.(default |> with_shrink_budget (-1)));
  rejects "empty adversary pool" (fun () ->
      ignore
        (Sim.Hunt.run ~config:(hunt_config ()) ~spec:weak_leader
           ~adversaries:[] ()))

(* A bound below 1 would score every recovery ratio as 0 and land in
   the corpus as is; the hunt refuses it like its other config checks. *)
let test_hunt_rejects_time_bound_below_one () =
  List.iter
    (fun bound ->
      let config = Sim.Hunt.Config.with_time_bound bound (hunt_config ()) in
      match Sim.Hunt.run ~config ~spec:weak_leader ~adversaries () with
      | _ -> Alcotest.failf "time_bound %d accepted" bound
      | exception Invalid_argument msg ->
        check Alcotest.string
          (Printf.sprintf "time_bound %d rejected" bound)
          "Hunt.run: time_bound < 1" msg)
    [ 0; -5 ]

(* The hunt's event margin is its min-suffix request (16 here): a
   shorter phase would turn every recovery into a vacuous failure, so
   the hunt refuses it before running a trial. *)
let test_hunt_rejects_short_phases () =
  let boom config =
    ignore (Sim.Hunt.run ~config ~spec:weak_leader ~adversaries ())
  in
  rejects "phase_rounds 4" (fun () ->
      boom (Sim.Hunt.Config.with_phase_rounds 4 (hunt_config ())));
  rejects "phase_rounds below the default min-suffix + 2" (fun () ->
      boom (Sim.Hunt.Config.with_phase_rounds 17 (hunt_config ())));
  rejects "phase_rounds below an explicit min-suffix + 2" (fun () ->
      boom
        Sim.Hunt.Config.(
          hunt_config () |> with_min_suffix 30 |> with_phase_rounds 31))

(* ------------------------------------------------------------------ *)
(* Corpus: write -> read -> replay                                      *)
(* ------------------------------------------------------------------ *)

let with_temp_corpus entries f =
  let path = Filename.temp_file "corpus" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () -> Sim.Hunt.Corpus.write oc entries);
      let ic = open_in path in
      Fun.protect ~finally:(fun () -> close_in ic) (fun () -> f path ic))

(* The hit predicate, seen through hunts: each hit's class is the first
   of failed / exceeds-bound / near-bound / clamped that the badness of
   its original schedule meets, and a hunt shaped for each class finds
   it (events asking for 10 victims of 4 nodes are clamped). Every
   class also survives the corpus encoding. *)
let test_classify () =
  let hunt ~spec ~time_bound ~near_bound =
    let config =
      Sim.Hunt.Config.(
        default |> with_trials 24 |> with_phases 2 |> with_phase_rounds 60
        |> with_events 2 |> with_max_victims 10 |> with_time_bound time_bound
        |> with_near_bound near_bound |> with_shrink_budget 0)
    in
    List.map
      (fun (h : _ Sim.Hunt.hit) ->
        let b = h.Sim.Hunt.found in
        let want =
          if b.Sim.Hunt.failed_phases > 0 then Sim.Hunt.Failed
          else if b.Sim.Hunt.worst_ratio > 1.0 then Sim.Hunt.Exceeds_bound
          else if b.Sim.Hunt.worst_ratio >= near_bound then Sim.Hunt.Near_bound
          else Sim.Hunt.Clamped
        in
        check Alcotest.string
          (Printf.sprintf "trial %d class" h.Sim.Hunt.trial)
          (Sim.Hunt.cls_to_string want)
          (Sim.Hunt.cls_to_string h.Sim.Hunt.cls);
        h)
      (Sim.Hunt.run ~config ~spec ~adversaries ()).Sim.Hunt.hits
  in
  let finds label cls hits =
    check Alcotest.bool label true
      (List.exists (fun (h : _ Sim.Hunt.hit) -> h.Sim.Hunt.cls = cls) hits)
  in
  finds "failed wins" Sim.Hunt.Failed
    (hunt ~spec:weak_leader ~time_bound:1 ~near_bound:0.9);
  (* follow-leader recovers within one round, A(4,1) takes longer *)
  let a41 =
    (Counting.Boost.construct ~inner:(Counting.Trivial.single ~c:2304) ~k:4
       ~big_f:1 ~big_c:2)
      .Counting.Boost.spec
  in
  finds "exceeds bound" Sim.Hunt.Exceeds_bound
    (hunt ~spec:a41 ~time_bound:1 ~near_bound:0.9);
  finds "near bound" Sim.Hunt.Near_bound
    (hunt ~spec:leader ~time_bound:1000 ~near_bound:1e-6);
  let clamped = hunt ~spec:leader ~time_bound:1000 ~near_bound:1.0 in
  finds "clamped" Sim.Hunt.Clamped clamped;
  let report =
    {
      Sim.Hunt.hits = [ List.hd clamped ];
      trials = 1;
      executions = 1;
      min_suffix = 16;
      time_bound = Some 1000;
      worst = None;
    }
  in
  let entry =
    List.hd (Sim.Hunt.Corpus.of_report ~spec:leader ~hunt_seed:1 report)
  in
  let entries =
    List.map
      (fun cls -> { entry with Sim.Hunt.Corpus.cls })
      [ Sim.Hunt.Failed; Sim.Hunt.Exceeds_bound; Sim.Hunt.Near_bound;
        Sim.Hunt.Clamped ]
  in
  with_temp_corpus entries @@ fun _path ic ->
  match Sim.Hunt.Corpus.read ~adversaries ic with
  | Error msg -> Alcotest.failf "corpus did not read back: %s" msg
  | Ok entries' ->
    List.iter2
      (fun (e : _ Sim.Hunt.Corpus.entry) (e' : _ Sim.Hunt.Corpus.entry) ->
        check Alcotest.bool
          (Printf.sprintf "class %s round-trips"
             (Sim.Hunt.cls_to_string e.Sim.Hunt.Corpus.cls))
          true
          (e.Sim.Hunt.Corpus.cls = e'.Sim.Hunt.Corpus.cls))
      entries entries'

let test_corpus_round_trip_and_replay () =
  let report = run_hunt () in
  let entries =
    Sim.Hunt.Corpus.of_report ~spec:weak_leader ~hunt_seed:1 report
  in
  check Alcotest.bool "corpus has entries" true (entries <> []);
  with_temp_corpus entries @@ fun _path ic ->
  match Sim.Hunt.Corpus.read ~adversaries ic with
  | Error msg -> Alcotest.failf "corpus did not read back: %s" msg
  | Ok entries' ->
    check Alcotest.int "entry count survives" (List.length entries)
      (List.length entries');
    check
      (Alcotest.list Alcotest.string)
      "corpus bytes survive the round trip"
      (List.map Sim.Hunt.Corpus.entry_to_json entries)
      (List.map Sim.Hunt.Corpus.entry_to_json entries');
    (* ISSUE acceptance: a reproducer replays from the corpus alone to
       the recorded verdict and score, at jobs 1 and parallel. *)
    List.iter
      (fun jobs ->
        let results =
          Sim.Hunt.Corpus.replay ~jobs ~spec:weak_leader ~entries:entries' ()
        in
        List.iter
          (fun ((e : _ Sim.Hunt.Corpus.entry), b, reproduced) ->
            check Alcotest.bool
              (Printf.sprintf "trial %d reproduces at jobs=%d"
                 e.Sim.Hunt.Corpus.trial jobs)
              true reproduced;
            check (Alcotest.float 0.0)
              (Printf.sprintf "trial %d same score at jobs=%d"
                 e.Sim.Hunt.Corpus.trial jobs)
              (Sim.Hunt.score e.Sim.Hunt.Corpus.badness)
              (Sim.Hunt.score b))
          results)
      [ 1; parallel_jobs ]

let test_corpus_read_errors () =
  let read_string s =
    let path = Filename.temp_file "corpus" ".jsonl" in
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        let oc = open_out path in
        output_string oc s;
        close_out oc;
        let ic = open_in path in
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> Sim.Hunt.Corpus.read ~adversaries ic))
  in
  (match read_string "\nnot json\n" with
  | Error msg ->
    check Alcotest.bool "error names the line" true
      (Astring.String.is_infix ~affix:"line 2" msg)
  | Ok _ -> Alcotest.fail "accepted a malformed corpus");
  (match read_string "{\"kind\":\"bench\"}\n" with
  | Error msg ->
    check Alcotest.bool "wrong kind rejected" true
      (Astring.String.is_infix ~affix:"hunt-hit" msg)
  | Ok _ -> Alcotest.fail "accepted a non-corpus line");
  check Alcotest.bool "empty stream is an empty corpus" true
    (read_string "" = Ok [])

let test_corpus_replay_rejects_wrong_spec () =
  let report = run_hunt () in
  let entries =
    Sim.Hunt.Corpus.of_report ~spec:weak_leader ~hunt_seed:1 report
  in
  rejects "replaying against a mismatched spec" (fun () ->
      ignore
        (Sim.Hunt.Corpus.replay
           ~spec:(Counting.Trivial.follow_leader ~n:6 ~c:5)
           ~entries ()))

(* ------------------------------------------------------------------ *)
(* The committed regression corpus                                      *)
(* ------------------------------------------------------------------ *)

(* Every corpus file committed under test/corpus/ must keep reproducing
   its recorded badness — the chaos-suite regression gate. The entries
   there were produced by `countctl hunt` against the over-claimed
   leader spec (see the file header comment in this test for how to
   regenerate: same flags as ci.sh's hunt smoke). *)
let committed_corpus_dir =
  List.find_opt Sys.file_exists [ "corpus"; "test/corpus" ]

let test_committed_corpus_replays () =
  match committed_corpus_dir with
  | None -> ()
  | Some dir ->
    let files =
      Sys.readdir dir |> Array.to_list
      |> List.filter (fun f -> Filename.check_suffix f ".jsonl")
      |> List.sort compare
    in
    check Alcotest.bool "committed corpus present" true (files <> []);
    List.iter
      (fun file ->
        let path = Filename.concat dir file in
        let ic = open_in path in
        let parsed =
          Fun.protect
            ~finally:(fun () -> close_in ic)
            (fun () ->
              Sim.Hunt.Corpus.read
                ~adversaries:(Sim.Adversary.registry ())
                ic)
        in
        match parsed with
        | Error msg -> Alcotest.failf "%s: %s" path msg
        | Ok [] -> Alcotest.failf "%s: empty corpus" path
        | Ok entries ->
          (* all committed entries target the weakened leader spec *)
          let e0 = List.hd entries in
          check Alcotest.int (path ^ ": n") 4 e0.Sim.Hunt.Corpus.n;
          let spec =
            Algo.Combinators.with_claimed_resilience
              (Counting.Trivial.follow_leader ~n:e0.Sim.Hunt.Corpus.n
                 ~c:e0.Sim.Hunt.Corpus.c)
              ~f:e0.Sim.Hunt.Corpus.f
          in
          List.iter
            (fun jobs ->
              let results =
                Sim.Hunt.Corpus.replay ~jobs ~spec ~entries ()
              in
              List.iter
                (fun ((e : _ Sim.Hunt.Corpus.entry), _, reproduced) ->
                  check Alcotest.bool
                    (Printf.sprintf "%s: trial %d reproduces at jobs=%d" path
                       e.Sim.Hunt.Corpus.trial jobs)
                    true reproduced)
                results)
            [ 1; parallel_jobs ])
      files

let suite =
  [
    ( "sim.hunt.badness",
      [
        case "validate rejects zero horizons" test_validate_rejects_zero_horizon;
        case "badness order and score" test_badness_order;
        case "classification" test_classify;
      ] );
    ( "sim.hunt.shrink",
      [
        test_shrink_candidates_qcheck;
        case "shrink steps (unit)" test_shrink_steps_unit;
      ] );
    ( "sim.hunt.json",
      [
        case "schedule JSON round-trip" test_schedule_json_round_trip;
        case "unknown adversary rejected with known names"
          test_schedule_json_unknown_adversary;
      ] );
    ( "sim.hunt",
      [
        case "finds and shrinks the over-claimed leader"
          test_hunt_finds_and_shrinks;
        case "honest spec yields no hits" test_hunt_clean_spec_no_hits;
        case "jobs determinism (byte-identical corpus)"
          test_hunt_jobs_determinism;
        case "rejects bad config" test_hunt_rejects_bad_config;
        case "rejects a time bound below 1"
          test_hunt_rejects_time_bound_below_one;
        case "rejects phases too short to certify"
          test_hunt_rejects_short_phases;
      ] );
    ( "sim.hunt.corpus",
      [
        case "write -> read -> replay round trip"
          test_corpus_round_trip_and_replay;
        case "read reports line numbers and kinds" test_corpus_read_errors;
        case "replay rejects a mismatched spec"
          test_corpus_replay_rejects_wrong_spec;
        case "committed corpus still reproduces" test_committed_corpus_replays;
      ] );
  ]
