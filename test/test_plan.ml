(* Tests for the recursion planner (Section 4): exact parameter
   accounting, the paper's schedules, and the analytic scaling series. *)

let check = Alcotest.check
let case name f = Alcotest.test_case name `Quick f

let test_corollary1_f1 () =
  let tower =
    Counting.Plan.plan_tower_exn ~target_c:2 (Counting.Plan.corollary1_levels ~f:1)
  in
  let top = Counting.Plan.top tower in
  check Alcotest.int "n = 3f+1" 4 top.Counting.Plan.n;
  check Alcotest.int "F" 1 top.Counting.Plan.big_f;
  (* tau = 9, (2m)^k = 4^4 = 256 *)
  check Alcotest.int "base c" 2304 tower.Counting.Plan.base_c;
  check Alcotest.int "T bound" 2304 top.Counting.Plan.time_bound;
  (* S = ceil(log2 2304) + ceil(log2 3) + 1 = 12 + 2 + 1 *)
  check Alcotest.int "state bits" 15 top.Counting.Plan.state_bits

let test_corollary1_grows () =
  List.iter
    (fun f ->
      let tower =
        Counting.Plan.plan_tower_exn ~target_c:2 (Counting.Plan.corollary1_levels ~f)
      in
      let top = Counting.Plan.top tower in
      check Alcotest.int (Printf.sprintf "n(f=%d)" f) ((3 * f) + 1) top.Counting.Plan.n;
      check Alcotest.int (Printf.sprintf "F(f=%d)" f) f top.Counting.Plan.big_f;
      check Alcotest.bool "optimal resilience f < n/3" true
        (3 * top.Counting.Plan.big_f < top.Counting.Plan.n))
    [ 1; 2; 3; 4 ]

let test_figure2_chain () =
  let tower = Counting.Plan.plan_tower_exn ~target_c:2 Counting.Plan.figure2_levels in
  let levels = tower.Counting.Plan.levels in
  check Alcotest.int "3 levels" 3 (List.length levels);
  let l1 = List.nth levels 0 and l2 = List.nth levels 1 and l3 = List.nth levels 2 in
  check Alcotest.int "A(4,1)" 4 l1.Counting.Plan.n;
  check Alcotest.int "A(12,3)" 12 l2.Counting.Plan.n;
  check Alcotest.int "A(36,7)" 36 l3.Counting.Plan.n;
  (* moduli thread top-down: level i outputs what level i+1 needs *)
  check Alcotest.int "l1 modulus = l2 requirement" 960 l1.Counting.Plan.c;
  check Alcotest.int "l2 modulus = l3 requirement" 1728 l2.Counting.Plan.c;
  check Alcotest.int "l3 modulus = target" 2 l3.Counting.Plan.c;
  (* time bounds accumulate *)
  check Alcotest.int "T1" 2304 l1.Counting.Plan.time_bound;
  check Alcotest.int "T2" 3264 l2.Counting.Plan.time_bound;
  check Alcotest.int "T3" 4992 l3.Counting.Plan.time_bound

let test_moduli_are_consistent () =
  (* every level's input modulus is a multiple of its requirement *)
  let towers =
    [
      Counting.Plan.plan_tower_exn ~target_c:6 Counting.Plan.figure2_levels;
      Counting.Plan.plan_tower_exn ~target_c:2
        (Counting.Plan.theorem2_levels ~epsilon:1.0 ~iterations:2);
    ]
  in
  List.iter
    (fun tower ->
      let inputs =
        tower.Counting.Plan.base_c
        :: List.map (fun (l : Counting.Plan.level_report) -> l.Counting.Plan.c)
             tower.Counting.Plan.levels
      in
      List.iteri
        (fun i (l : Counting.Plan.level_report) ->
          check Alcotest.bool "input modulus divisible by overhead" true
            (List.nth inputs i mod l.Counting.Plan.overhead = 0))
        tower.Counting.Plan.levels)
    towers

let test_plan_rejects_bad () =
  check Alcotest.bool "empty schedule" true
    (Result.is_error (Counting.Plan.plan_tower ~target_c:2 []));
  check Alcotest.bool "target c = 1" true
    (Result.is_error
       (Counting.Plan.plan_tower ~target_c:1 Counting.Plan.figure2_levels));
  check Alcotest.bool "overflowing k" true
    (Result.is_error
       (Counting.Plan.plan_tower ~target_c:2 [ { Counting.Plan.k = 64; big_f = 1 } ]))

let test_theorem2_levels_structure () =
  let levels = Counting.Plan.theorem2_levels ~epsilon:1.0 ~iterations:3 in
  (* base A(4,1) then three k=4 iterations doubling f *)
  check Alcotest.int "levels" 4 (List.length levels);
  let fs = List.map (fun (l : Counting.Plan.level) -> l.Counting.Plan.big_f) levels in
  check (Alcotest.list Alcotest.int) "f doubles" [ 1; 2; 4; 8 ] fs;
  List.iter
    (fun (l : Counting.Plan.level) ->
      if l.Counting.Plan.big_f > 1 then
        check Alcotest.int "k = 2h = 4 for eps = 1" 4 l.Counting.Plan.k)
    levels

let test_theorem2_tower_builds () =
  (* the concrete A(16,2) instance: base + one iteration *)
  let tower =
    Counting.Plan.plan_tower_exn ~target_c:2
      (Counting.Plan.theorem2_levels ~epsilon:1.0 ~iterations:1)
  in
  let top = Counting.Plan.top tower in
  check Alcotest.int "n = 16" 16 top.Counting.Plan.n;
  check Alcotest.int "f = 2" 2 top.Counting.Plan.big_f;
  check Alcotest.bool "time bound is linear-ish" true
    (top.Counting.Plan.time_bound < 10_000)

let test_theorem2_series_ratio_bound () =
  (* Theorem 2: n / f <= 8 f^eps, i.e. log2(n/f) <= 3 + eps log2 f *)
  List.iter
    (fun epsilon ->
      let rows = Counting.Plan.theorem2_series ~epsilon ~iterations:30 in
      List.iter
        (fun (r : Counting.Plan.scaling_row) ->
          if r.Counting.Plan.step > 0 then begin
            let bound = 3.0 +. (epsilon *. r.Counting.Plan.log2_f) in
            if r.Counting.Plan.log2_ratio > bound +. 1e-6 then
              Alcotest.failf "eps=%.2f step %d: log2(n/f)=%.2f > %.2f" epsilon
                r.Counting.Plan.step r.Counting.Plan.log2_ratio bound
          end)
        rows)
    [ 1.0; 0.5; 0.25 ]

let test_theorem2_series_time_linear () =
  (* T = O(f): log2 T - log2 f must be bounded by a constant (depending
     on eps, not on the level). *)
  let rows = Counting.Plan.theorem2_series ~epsilon:1.0 ~iterations:40 in
  let gaps =
    List.filter_map
      (fun (r : Counting.Plan.scaling_row) ->
        if r.Counting.Plan.step >= 5 then
          Some (r.Counting.Plan.log2_time -. r.Counting.Plan.log2_f)
        else None)
      rows
  in
  let lo = List.fold_left min infinity gaps
  and hi = List.fold_left max neg_infinity gaps in
  check Alcotest.bool "log2(T/f) stays in a constant band" true (hi -. lo < 2.0)

let test_theorem2_series_space_polylog () =
  (* S = O(log^2 f): bits / log2^2 f bounded *)
  let rows = Counting.Plan.theorem2_series ~epsilon:1.0 ~iterations:40 in
  List.iter
    (fun (r : Counting.Plan.scaling_row) ->
      if r.Counting.Plan.step >= 10 then begin
        let ratio =
          r.Counting.Plan.bits /. (r.Counting.Plan.log2_f ** 2.0)
        in
        if ratio > 30.0 then
          Alcotest.failf "step %d: bits/log^2 f = %.1f too large"
            r.Counting.Plan.step ratio
      end)
    rows

let test_theorem3_series_resilience () =
  (* f = n^(1-o(1)): the ratio log2(n/f) / log2 f must shrink as P grows *)
  let ratio_at phases =
    let rows = Counting.Plan.theorem3_series ~phases in
    let last = List.nth rows (List.length rows - 1) in
    last.Counting.Plan.log2_ratio /. last.Counting.Plan.log2_f
  in
  let r2 = ratio_at 2 and r4 = ratio_at 4 and r6 = ratio_at 6 in
  check Alcotest.bool "epsilon shrinks with more phases" true (r2 > r4 && r4 > r6)

let test_theorem3_beats_theorem2_space () =
  (* Theorem 3's claim: for comparable resilience the space is
     O(log^2 f / log log f), asymptotically below Theorem 2's log^2 f at
     small epsilon. We check the bits-per-log2f^2 ratio declines. *)
  let rows = Counting.Plan.theorem3_series ~phases:6 in
  let last = List.nth rows (List.length rows - 1) in
  let t3_ratio = last.Counting.Plan.bits /. (last.Counting.Plan.log2_f ** 2.0) in
  check Alcotest.bool "theorem 3 space ratio modest" true (t3_ratio < 10.0)

let test_describe_mentions_levels () =
  let tower = Counting.Plan.plan_tower_exn ~target_c:2 Counting.Plan.figure2_levels in
  let s = Counting.Build.describe tower in
  check Alcotest.bool "mentions A(36,...)" true
    (Astring.String.is_infix ~affix:"n=36" s)

let test_build_matches_plan () =
  let tower = Counting.Plan.plan_tower_exn ~target_c:4 Counting.Plan.figure2_levels in
  let (Algo.Spec.Packed spec) = Counting.Build.tower tower in
  let top = Counting.Plan.top tower in
  check Alcotest.int "n" top.Counting.Plan.n spec.Algo.Spec.n;
  check Alcotest.int "f" top.Counting.Plan.big_f spec.Algo.Spec.f;
  check Alcotest.int "c" 4 spec.Algo.Spec.c;
  check Alcotest.int "state bits match the plan" top.Counting.Plan.state_bits
    spec.Algo.Spec.state_bits

let test_base_n_variant () =
  (* blocks of 2 nodes at the base: follow-leader trivial counters *)
  let tower =
    Counting.Plan.plan_tower_exn ~base_n:2 ~target_c:2
      [ { Counting.Plan.k = 3; big_f = 0 } ]
  in
  let (Algo.Spec.Packed spec) = Counting.Build.tower tower in
  check Alcotest.int "N = 6" 6 spec.Algo.Spec.n;
  check Alcotest.int "base time 1" 1 tower.Counting.Plan.base_time

let suite =
  [
    ( "plan",
      [
        case "Corollary 1, f = 1" test_corollary1_f1;
        case "Corollary 1 family" test_corollary1_grows;
        case "Figure 2 chain" test_figure2_chain;
        case "moduli consistency" test_moduli_are_consistent;
        case "rejects bad schedules" test_plan_rejects_bad;
        case "Theorem 2 schedule" test_theorem2_levels_structure;
        case "Theorem 2 concrete tower" test_theorem2_tower_builds;
        case "Theorem 2 resilience bound" test_theorem2_series_ratio_bound;
        case "Theorem 2 linear time" test_theorem2_series_time_linear;
        case "Theorem 2 polylog space" test_theorem2_series_space_polylog;
        case "Theorem 3 resilience trend" test_theorem3_series_resilience;
        case "Theorem 3 space ratio" test_theorem3_beats_theorem2_space;
        case "describe" test_describe_mentions_levels;
        case "build matches plan" test_build_matches_plan;
        case "base_n > 1" test_base_n_variant;
      ] );
  ]
