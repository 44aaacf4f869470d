(* Unit and property tests for the utility substrate. *)

let check = Alcotest.check
let case name f = Alcotest.test_case name `Quick f

let qcheck ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

(* ------------------------------------------------------------------ *)
(* Rng                                                                  *)
(* ------------------------------------------------------------------ *)

let test_rng_determinism () =
  let a = Stdx.Rng.create 17 and b = Stdx.Rng.create 17 in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Stdx.Rng.next_int64 a)
      (Stdx.Rng.next_int64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Stdx.Rng.create 17 and b = Stdx.Rng.create 18 in
  check Alcotest.bool "different seeds differ" true
    (Stdx.Rng.next_int64 a <> Stdx.Rng.next_int64 b)

let test_rng_copy_independent () =
  let a = Stdx.Rng.create 3 in
  let b = Stdx.Rng.copy a in
  let xa = Stdx.Rng.next_int64 a in
  let xb = Stdx.Rng.next_int64 b in
  check Alcotest.int64 "copy replays" xa xb;
  ignore (Stdx.Rng.next_int64 a);
  let xa2 = Stdx.Rng.next_int64 a and xb2 = Stdx.Rng.next_int64 b in
  check Alcotest.bool "then they diverge (one is ahead)" true (xa2 <> xb2)

let test_rng_split_diverges () =
  let a = Stdx.Rng.create 5 in
  let b = Stdx.Rng.split a in
  let xs = List.init 10 (fun _ -> Stdx.Rng.next_int64 a) in
  let ys = List.init 10 (fun _ -> Stdx.Rng.next_int64 b) in
  check Alcotest.bool "split streams differ" true (xs <> ys)

let test_rng_int_bounds =
  qcheck "Rng.int stays in bounds"
    QCheck.(pair small_int (int_range 1 1000))
    (fun (seed, bound) ->
      let rng = Stdx.Rng.create seed in
      let v = Stdx.Rng.int rng bound in
      v >= 0 && v < bound)

let test_rng_int_invalid () =
  let rng = Stdx.Rng.create 1 in
  Alcotest.check_raises "bound 0" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Stdx.Rng.int rng 0))

let test_rng_int_covers () =
  let rng = Stdx.Rng.create 11 in
  let seen = Array.make 6 false in
  for _ = 1 to 1000 do
    seen.(Stdx.Rng.int rng 6) <- true
  done;
  check Alcotest.bool "all values of [0,6) hit in 1000 draws" true
    (Array.for_all Fun.id seen)

let test_rng_float_range () =
  let rng = Stdx.Rng.create 2 in
  for _ = 1 to 1000 do
    let x = Stdx.Rng.float rng in
    if x < 0.0 || x >= 1.0 then Alcotest.failf "float out of range: %f" x
  done

let test_rng_bool_balanced () =
  let rng = Stdx.Rng.create 23 in
  let heads = ref 0 in
  for _ = 1 to 10_000 do
    if Stdx.Rng.bool rng then incr heads
  done;
  check Alcotest.bool "roughly fair" true (!heads > 4500 && !heads < 5500)

let test_shuffle_permutation =
  qcheck "shuffle is a permutation"
    QCheck.(pair small_int (list_of_size (Gen.int_range 0 50) int))
    (fun (seed, xs) ->
      let rng = Stdx.Rng.create seed in
      let a = Array.of_list xs in
      Stdx.Rng.shuffle rng a;
      List.sort compare (Array.to_list a) = List.sort compare xs)

let test_sample_without_replacement =
  qcheck "sample w/o replacement: distinct, in range, right size"
    QCheck.(triple small_int (int_range 0 20) (int_range 20 60))
    (fun (seed, k, n) ->
      let rng = Stdx.Rng.create seed in
      let s = Stdx.Rng.sample_without_replacement rng k n in
      List.length s = k
      && List.length (List.sort_uniq compare s) = k
      && List.for_all (fun v -> v >= 0 && v < n) s)

let test_sample_with_replacement =
  qcheck "sample w/ replacement: in range, right size"
    QCheck.(triple small_int (int_range 0 50) (int_range 1 20))
    (fun (seed, k, n) ->
      let rng = Stdx.Rng.create seed in
      let s = Stdx.Rng.sample_with_replacement rng k n in
      List.length s = k && List.for_all (fun v -> v >= 0 && v < n) s)

(* ------------------------------------------------------------------ *)
(* Imath                                                                *)
(* ------------------------------------------------------------------ *)

let test_pow_basics () =
  check Alcotest.int "2^10" 1024 (Stdx.Imath.pow 2 10);
  check Alcotest.int "7^0" 1 (Stdx.Imath.pow 7 0);
  check Alcotest.int "0^0" 1 (Stdx.Imath.pow 0 0);
  check Alcotest.int "0^5" 0 (Stdx.Imath.pow 0 5);
  check Alcotest.int "1^60" 1 (Stdx.Imath.pow 1 60);
  check Alcotest.int "10^10" 10_000_000_000 (Stdx.Imath.pow 10 10)

let test_pow_overflow () =
  Alcotest.check_raises "16^16 overflows 63-bit" (Failure "Imath: integer overflow")
    (fun () -> ignore (Stdx.Imath.pow 16 16))

let test_pow_negative_exponent () =
  Alcotest.check_raises "negative exponent"
    (Invalid_argument "Imath.pow: negative exponent") (fun () ->
      ignore (Stdx.Imath.pow 2 (-1)))

let test_ceil_log2 () =
  check Alcotest.int "clog2 1" 0 (Stdx.Imath.ceil_log2 1);
  check Alcotest.int "clog2 2" 1 (Stdx.Imath.ceil_log2 2);
  check Alcotest.int "clog2 3" 2 (Stdx.Imath.ceil_log2 3);
  check Alcotest.int "clog2 1024" 10 (Stdx.Imath.ceil_log2 1024);
  check Alcotest.int "clog2 1025" 11 (Stdx.Imath.ceil_log2 1025)

let test_ceil_log2_prop =
  qcheck "2^(clog2 n) >= n > 2^(clog2 n - 1)"
    QCheck.(int_range 1 1_000_000)
    (fun n ->
      let b = Stdx.Imath.ceil_log2 n in
      Stdx.Imath.pow 2 b >= n && (b = 0 || Stdx.Imath.pow 2 (b - 1) < n))

let test_bits_for () =
  check Alcotest.int "bits_for 1 (singleton still 1 bit)" 1 (Stdx.Imath.bits_for 1);
  check Alcotest.int "bits_for 2" 1 (Stdx.Imath.bits_for 2);
  check Alcotest.int "bits_for 3" 2 (Stdx.Imath.bits_for 3);
  check Alcotest.int "bits_for 2304" 12 (Stdx.Imath.bits_for 2304)

let test_ceil_div_prop =
  qcheck "ceil_div a b = ceil(a/b)"
    QCheck.(pair (int_range 0 100000) (int_range 1 1000))
    (fun (a, b) ->
      let q = Stdx.Imath.ceil_div a b in
      (q * b >= a) && ((q - 1) * b < a || q = 0))

let test_gcd_lcm_prop =
  qcheck "gcd divides both; lcm multiple of both; gcd*lcm = a*b"
    QCheck.(pair (int_range 1 10000) (int_range 1 10000))
    (fun (a, b) ->
      let g = Stdx.Imath.gcd a b and l = Stdx.Imath.lcm a b in
      a mod g = 0 && b mod g = 0 && l mod a = 0 && l mod b = 0 && g * l = a * b)

let test_imod_prop =
  qcheck "imod in [0, m) and congruent"
    QCheck.(pair (int_range (-100000) 100000) (int_range 1 997))
    (fun (a, m) ->
      let r = Stdx.Imath.imod a m in
      r >= 0 && r < m && (a - r) mod m = 0)

let test_is_multiple () =
  check Alcotest.bool "960 | 2880" true (Stdx.Imath.is_multiple 2880 ~of_:960);
  check Alcotest.bool "960 !| 2881" false (Stdx.Imath.is_multiple 2881 ~of_:960)

(* ------------------------------------------------------------------ *)
(* Stats                                                                *)
(* ------------------------------------------------------------------ *)

let test_stats_mean () =
  check (Alcotest.float 1e-9) "mean" 2.5 (Stdx.Stats.mean [ 1.0; 2.0; 3.0; 4.0 ])

let test_stats_stddev () =
  check (Alcotest.float 1e-9) "stddev of constant" 0.0
    (Stdx.Stats.stddev [ 5.0; 5.0; 5.0 ]);
  check (Alcotest.float 1e-6) "sample stddev" 1.0
    (Stdx.Stats.stddev [ 1.0; 2.0; 3.0 ])

let test_stats_percentile () =
  let xs = [ 1.0; 2.0; 3.0; 4.0; 5.0 ] in
  check (Alcotest.float 1e-9) "median" 3.0 (Stdx.Stats.percentile 0.5 xs);
  check (Alcotest.float 1e-9) "min" 1.0 (Stdx.Stats.percentile 0.0 xs);
  check (Alcotest.float 1e-9) "max" 5.0 (Stdx.Stats.percentile 1.0 xs)

let test_stats_percentile_interpolates () =
  check (Alcotest.float 1e-9) "p25 of [0;10]" 2.5
    (Stdx.Stats.percentile 0.25 [ 0.0; 10.0 ])

let test_stats_summary () =
  let s = Stdx.Stats.summarize_ints [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ] in
  check Alcotest.int "count" 10 s.Stdx.Stats.count;
  check (Alcotest.float 1e-9) "mean" 5.5 s.Stdx.Stats.mean;
  check (Alcotest.float 1e-9) "min" 1.0 s.Stdx.Stats.min;
  check (Alcotest.float 1e-9) "max" 10.0 s.Stdx.Stats.max

let test_stats_histogram () =
  let h = Stdx.Stats.histogram ~bins:2 [ 0.0; 0.1; 0.9; 1.0 ] in
  check Alcotest.int "two bins" 2 (Array.length h);
  let _, _, c0 = h.(0) and _, _, c1 = h.(1) in
  check Alcotest.int "total preserved" 4 (c0 + c1)

let test_stats_fraction () =
  check (Alcotest.float 1e-9) "fraction" 0.5
    (Stdx.Stats.fraction (fun x -> x > 0) [ 1; -1; 2; -2 ]);
  check (Alcotest.float 1e-9) "fraction of empty" 0.0
    (Stdx.Stats.fraction (fun _ -> true) [])

let test_stats_empty_raises () =
  Alcotest.check_raises "mean of empty" (Invalid_argument "Stats.mean: empty input")
    (fun () -> ignore (Stdx.Stats.mean []))

(* Regression: the polymorphic compare/min/max used previously ordered
   NaN unpredictably, so a single NaN could silently corrupt percentile,
   min and max. NaN is now rejected up front. *)
let test_stats_nan_rejected () =
  let nan_list = [ 1.0; Float.nan; 3.0 ] in
  let raises name f =
    check Alcotest.bool (name ^ " rejects NaN") true
      (try ignore (f ()); false with Invalid_argument _ -> true)
  in
  raises "mean" (fun () -> Stdx.Stats.mean nan_list);
  raises "stddev" (fun () -> Stdx.Stats.stddev nan_list);
  raises "percentile" (fun () -> Stdx.Stats.percentile 0.5 nan_list);
  raises "summarize" (fun () -> Stdx.Stats.summarize nan_list);
  raises "histogram" (fun () -> Stdx.Stats.histogram ~bins:2 nan_list)

let test_stats_order_with_infinities () =
  (* Float.compare/min/max keep total order on the non-NaN extremes *)
  let xs = [ Float.infinity; -1.0; 0.0; Float.neg_infinity ] in
  let s = Stdx.Stats.summarize xs in
  check Alcotest.bool "min" true (s.Stdx.Stats.min = Float.neg_infinity);
  check Alcotest.bool "max" true (s.Stdx.Stats.max = Float.infinity);
  check (Alcotest.float 1e-9) "median sorts correctly" (-0.5)
    (Stdx.Stats.percentile 0.5 xs)

(* ------------------------------------------------------------------ *)
(* Pool                                                                 *)
(* ------------------------------------------------------------------ *)

exception Boom of int

let test_pool_run_in_order () =
  let a = Stdx.Pool.exec ~jobs:4 10 (fun i -> i * 3) in
  check (Alcotest.array Alcotest.int) "slot i holds f i"
    (Array.init 10 (fun i -> i * 3))
    a

let test_pool_empty_and_oversubscribed () =
  check (Alcotest.array Alcotest.int) "n = 0" [||]
    (Stdx.Pool.exec ~jobs:4 0 (fun i -> i));
  check (Alcotest.array Alcotest.int) "jobs > n" [| 0; 1 |]
    (Stdx.Pool.exec ~jobs:16 2 (fun i -> i))

let test_pool_invalid_args () =
  let raises name f =
    check Alcotest.bool name true
      (try ignore (f ()); false with Invalid_argument _ -> true)
  in
  raises "jobs = 0 rejected" (fun () -> Stdx.Pool.exec ~jobs:0 3 (fun i -> i));
  raises "negative n rejected" (fun () ->
      Stdx.Pool.exec ~jobs:2 (-1) (fun i -> i));
  raises "non-finite cost rejected" (fun () ->
      Stdx.Pool.exec ~cost:(fun _ -> Float.nan) 3 (fun i -> i))

let test_pool_propagates_lowest_failure () =
  (* Several tasks fail; the pool must deterministically re-raise the
     one with the lowest index, regardless of scheduling. *)
  let observed =
    try
      ignore
        (Stdx.Pool.exec ~jobs:4 16 (fun i ->
             if i mod 5 = 2 then raise (Boom i) else i));
      None
    with Boom i -> Some i
  in
  check (Alcotest.option Alcotest.int) "lowest failing index wins" (Some 2)
    observed

(* A representative cost zoo: the pseudo-random cost has ties (so the
   index tie-break is exercised), the increasing cost claims the highest
   index first, and the constant cost must degrade to index order. *)
let pool_costs =
  [
    None;
    Some (fun i -> float_of_int ((i * 2654435761) land 0xff));
    Some float_of_int;
    Some (fun _ -> 1.0);
  ]

let test_pool_exec_cost_invariant =
  qcheck "Pool.exec = sequential under any cost model and jobs count"
    QCheck.(triple (list small_int) (int_range 1 8) (int_range 0 3))
    (fun (xs, jobs, tag) ->
      let a = Array.of_list xs in
      let n = Array.length a in
      Stdx.Pool.exec ~jobs ?cost:(List.nth pool_costs tag) n (fun i ->
          (a.(i) * 7) - i)
      = Array.init n (fun i -> (a.(i) * 7) - i))

let test_pool_cost_error_propagation () =
  (* The increasing cost executes index 15 first and hits Boom 12
     chronologically before Boom 2 — the pool must still re-raise
     Boom 2, the lowest failing index. *)
  List.iteri
    (fun tag cost ->
      let observed =
        try
          ignore
            (Stdx.Pool.exec ~jobs:4 ?cost 16 (fun i ->
                 if i mod 5 = 2 then raise (Boom i) else i));
          None
        with Boom i -> Some i
      in
      check
        (Alcotest.option Alcotest.int)
        (Printf.sprintf "cost model %d: lowest failing index wins" tag)
        (Some 2) observed)
    pool_costs

(* The indices [on_task] sees at jobs = 1, i.e. the claim order. *)
let claim_order ?cost n =
  let seen = ref [] in
  ignore
    (Stdx.Pool.exec ?cost
       ~on_task:(fun ~worker:_ ~index ~wall_s:_ -> seen := index :: !seen)
       n Fun.id);
  List.rev !seen

let test_pool_claim_order () =
  let ints = Alcotest.(list int) in
  check ints "no cost: index order" [ 0; 1; 2; 3; 4; 5 ] (claim_order 6);
  check ints "decreasing cost, ties by lower index" [ 4; 1; 3; 5; 0; 2 ]
    (claim_order ~cost:(fun i -> [| 1.; 5.; 1.; 2.; 9.; 2. |].(i)) 6);
  check ints "constant cost: index order" [ 0; 1; 2; 3 ]
    (claim_order ~cost:(fun _ -> 7.0) 4)

let test_pool_stats () =
  let seen = ref None in
  let a =
    Stdx.Pool.exec ~jobs:3 ~cost:float_of_int
      ~stats:(fun s -> seen := Some s)
      10
      (fun i -> i)
  in
  check (Alcotest.array Alcotest.int) "results unaffected by stats"
    (Array.init 10 Fun.id) a;
  (match !seen with
  | None -> Alcotest.fail "stats callback not invoked"
  | Some s ->
    check Alcotest.int "actual jobs" 3 s.Stdx.Pool.actual_jobs;
    check Alcotest.int "one busy slot per worker" 3
      (Array.length s.Stdx.Pool.worker_busy_s);
    check Alcotest.int "every task claimed exactly once" 10
      (Array.fold_left ( + ) 0 s.Stdx.Pool.worker_tasks);
    check Alcotest.bool "busy seconds non-negative" true
      (Array.for_all (fun b -> b >= 0.0) s.Stdx.Pool.worker_busy_s));
  (* jobs are clamped to the task count, and the stats say so *)
  let clamped = ref None in
  ignore
    (Stdx.Pool.exec ~jobs:8 ~stats:(fun s -> clamped := Some s) 2 (fun i -> i));
  (match !clamped with
  | None -> Alcotest.fail "stats callback not invoked"
  | Some s -> check Alcotest.int "jobs clamped to n" 2 s.Stdx.Pool.actual_jobs);
  (* the callback still fires when a task fails — before the re-raise *)
  let failed = ref None in
  (try
     ignore
       (Stdx.Pool.exec ~jobs:2
          ~stats:(fun s -> failed := Some s)
          4
          (fun i -> if i = 1 then raise (Boom i) else i))
   with Boom _ -> ());
  match !failed with
  | None -> Alcotest.fail "stats callback skipped on failure"
  | Some s ->
    check Alcotest.int "failing grid fully drained" 4
      (Array.fold_left ( + ) 0 s.Stdx.Pool.worker_tasks)

(* ------------------------------------------------------------------ *)
(* Table                                                                *)
(* ------------------------------------------------------------------ *)

let test_table_renders () =
  let t = Stdx.Table.create [ "name"; "value" ] in
  Stdx.Table.add_row t [ "alpha"; "1" ];
  Stdx.Table.add_rule t;
  Stdx.Table.add_row t [ "beta"; "22" ];
  let s = Stdx.Table.to_string t in
  check Alcotest.bool "contains header" true
    (Astring.String.is_infix ~affix:"name" s);
  check Alcotest.bool "contains rows" true
    (Astring.String.is_infix ~affix:"beta" s)

let test_table_width_mismatch () =
  let t = Stdx.Table.create [ "a"; "b" ] in
  Alcotest.check_raises "row width" (Invalid_argument "Table.add_row: width mismatch")
    (fun () -> Stdx.Table.add_row t [ "only-one" ])

let test_table_alignment () =
  let t = Stdx.Table.create [ "k"; "v" ] in
  Stdx.Table.add_row t [ "x"; "1" ];
  Stdx.Table.add_row t [ "longer"; "22" ];
  let lines = String.split_on_char '\n' (Stdx.Table.to_string t) in
  let widths =
    List.filter_map
      (fun l -> if String.length l > 0 then Some (String.length l) else None)
      lines
  in
  check Alcotest.bool "all lines same width" true
    (match widths with [] -> false | w :: ws -> List.for_all (fun x -> x = w) ws)

let test_table_cells () =
  check Alcotest.string "int cell" "42" (Stdx.Table.cell_int 42);
  check Alcotest.string "float cell" "3.14" (Stdx.Table.cell_float 3.14159);
  check Alcotest.string "bool cell" "yes" (Stdx.Table.cell_bool true)

let suite =
  [
    ( "stdx.rng",
      [
        case "determinism" test_rng_determinism;
        case "seed sensitivity" test_rng_seed_sensitivity;
        case "copy independence" test_rng_copy_independent;
        case "split diverges" test_rng_split_diverges;
        test_rng_int_bounds;
        case "int invalid bound" test_rng_int_invalid;
        case "int covers range" test_rng_int_covers;
        case "float range" test_rng_float_range;
        case "bool balanced" test_rng_bool_balanced;
        test_shuffle_permutation;
        test_sample_without_replacement;
        test_sample_with_replacement;
      ] );
    ( "stdx.imath",
      [
        case "pow basics" test_pow_basics;
        case "pow overflow" test_pow_overflow;
        case "pow negative" test_pow_negative_exponent;
        case "ceil_log2 values" test_ceil_log2;
        test_ceil_log2_prop;
        case "bits_for" test_bits_for;
        test_ceil_div_prop;
        test_gcd_lcm_prop;
        test_imod_prop;
        case "is_multiple" test_is_multiple;
      ] );
    ( "stdx.stats",
      [
        case "mean" test_stats_mean;
        case "stddev" test_stats_stddev;
        case "percentile" test_stats_percentile;
        case "percentile interpolation" test_stats_percentile_interpolates;
        case "summary" test_stats_summary;
        case "histogram" test_stats_histogram;
        case "fraction" test_stats_fraction;
        case "empty raises" test_stats_empty_raises;
        case "NaN rejected" test_stats_nan_rejected;
        case "total order with infinities" test_stats_order_with_infinities;
      ] );
    ( "stdx.pool",
      [
        case "results land in index order" test_pool_run_in_order;
        case "empty and oversubscribed" test_pool_empty_and_oversubscribed;
        case "invalid arguments" test_pool_invalid_args;
        case "lowest failing index re-raised" test_pool_propagates_lowest_failure;
        test_pool_exec_cost_invariant;
        case "lowest failure wins under every cost model"
          test_pool_cost_error_propagation;
        case "claim order is cost-sorted" test_pool_claim_order;
        case "stats report the execution" test_pool_stats;
      ] );
    ( "stdx.table",
      [
        case "renders" test_table_renders;
        case "width mismatch" test_table_width_mismatch;
        case "alignment" test_table_alignment;
        case "cells" test_table_cells;
      ] );
  ]
