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

let test_sample_without_replacement =
  qcheck "sample w/o replacement: distinct, in range, right size"
    QCheck.(triple small_int (int_range 0 20) (int_range 20 60))
    (fun (seed, k, n) ->
      let rng = Stdx.Rng.create seed in
      let s = Stdx.Rng.sample_without_replacement rng k n in
      List.length s = k
      && List.length (List.sort_uniq compare s) = k
      && List.for_all (fun v -> v >= 0 && v < n) s)

(* Golden streams: the first outputs of every primitive for fixed seeds,
   as the generator has always produced them. Every recorded seed, corpus
   entry and benchmark digest in the repository depends on these exact
   streams, so a change of representation must reproduce them bit for
   bit. [int]'s bounds include 1 (no draw), a 40-bit bound and a bound
   just past 2^60, which rejects about half of all draws. *)
let rng_golden =
  [
    ( 0,
      [ 948447758; 463349658; 28383046; 1042476586 ],
      [ 0; 1; 1; 9; 805; 194518519443; 754761825157895261; 0 ],
      "tftftftf",
      [ "0x1.c4415072f63b9p-1"; "0x1.b9e279aa86e58p-2"; "0x1.b1174620025p-6" ],
      [ 752920769; 463349658; 148938095 ],
      [ 995035815274294462; 60952127433943209; 245218775303261843;
        754761825157895261; 400912003250038364; 566520145124077912 ],
      1022235171 );
    ( 1,
      [ 805036044; 399854393; 470603760; 1024475022 ],
      [ 0; 0; 1; 0; 125; 984570408215; 1373747321500167948; 4 ],
      "fttftfff",
      [ "0x1.7fdf0061bb85ap-1"; "0x1.7d54b3920bcaap-2"; "0x1.c0cd7f0f6bcf6p-2" ],
      [ 1054960615; 399854393; 917340489 ],
      [ 858680770823083336; 1010613881357105940; 465917937328860439;
        1050932475053950143; 428761029293495661; 726012482746310071 ],
      947287188 );
    ( 42,
      [ 640077764; 172191023; 178668281; 51567305 ],
      [ 0; 1; 1; 2; 545; 59229700628; 542155491210482264; 0 ],
      "tttftttf",
      [ "0x1.31367e26140c7p-1"; "0x1.486da5f92b86cp-3"; "0x1.54c85f31d00d8p-3" ],
      [ 897959745; 172191023; 579705431 ],
      [ 369777407914023898; 383687213059159642; 110739944760160545;
        542155491210482264; 644112150542925561; 352548044328291498 ],
      816777511 );
    ( -7,
      [ 686220402; 146745330; 917548200; 409705756 ],
      [ 0; 0; 1; 4; 761; 335632089400; 626569945175889949; 0 ],
      "fttffttf",
      [ "0x1.47372396bd963p-1"; "0x1.17e4fe55fbc3cp-3"; "0x1.b5856541cb7c9p-1" ],
      [ 687040995; 146745330; 518629484 ],
      [ 315133198070648581; 879836412226143761; 626569945175889949;
        254518711133349999; 628082237069038241; 300150407659414443 ],
      987485328 );
  ]

let test_rng_golden () =
  let ints = Alcotest.(list int) in
  List.iter
    (fun (seed, bits, ints_, bools, floats, split, rejecting, after) ->
      let label what = Printf.sprintf "seed %d: %s" seed what in
      let fresh () = Stdx.Rng.create seed in
      let r = fresh () in
      check ints (label "bits") bits (List.map (fun _ -> Stdx.Rng.bits r) bits);
      let r = fresh () in
      check ints (label "int")
        ints_
        (List.map (Stdx.Rng.int r)
           [ 1; 2; 3; 10; 1000; 1 lsl 40; (1 lsl 61) - 1; 7 ]);
      let r = fresh () in
      check Alcotest.string (label "bool") bools
        (String.init 8 (fun _ -> if Stdx.Rng.bool r then 't' else 'f'));
      let r = fresh () in
      check
        Alcotest.(list string)
        (label "float") floats
        (List.map (fun _ -> Printf.sprintf "%h" (Stdx.Rng.float r)) floats);
      let r = fresh () in
      let child = Stdx.Rng.split r in
      let g1 = Stdx.Rng.bits (Stdx.Rng.split child) in
      let p1 = Stdx.Rng.bits r in
      let c1 = Stdx.Rng.bits child in
      check ints (label "split") split [ c1; p1; g1 ];
      (* split_into re-seeds buffers that already hold other streams,
         yet yields the same child, grandchild and parent streams. *)
      let r = fresh () in
      let child = Stdx.Rng.create (seed + 1) in
      ignore (Stdx.Rng.bits child);
      Stdx.Rng.split_into r child;
      let grandchild = Stdx.Rng.create (seed + 2) in
      Stdx.Rng.split_into child grandchild;
      let g1 = Stdx.Rng.bits grandchild in
      let p1 = Stdx.Rng.bits r in
      let c1 = Stdx.Rng.bits child in
      check ints (label "split_into") split [ c1; p1; g1 ];
      (* The indexed split and the advance land on the same streams:
         split 0 is the child, and one advance moves the parent past
         it. *)
      let r = fresh () in
      let child = Stdx.Rng.create (seed + 1) in
      Stdx.Rng.split_nth r 0 child;
      let g1 = Stdx.Rng.bits (Stdx.Rng.split child) in
      Stdx.Rng.advance r 1;
      let p1 = Stdx.Rng.bits r in
      let c1 = Stdx.Rng.bits child in
      check ints (label "split_nth 0, advance 1") split [ c1; p1; g1 ];
      (* A sampler with its threshold precomputed draws what [int]
         draws, rejections included. *)
      let r = fresh () in
      check ints (label "int_sampler") ints_
        (List.map
           (fun b -> Stdx.Rng.int_sampler b r)
           [ 1; 2; 3; 10; 1000; 1 lsl 40; (1 lsl 61) - 1; 7 ]);
      let r = fresh () in
      let big = (1 lsl 60) + 1 in
      let draw = Stdx.Rng.int_sampler big in
      check ints (label "int_sampler with rejections") rejecting
        (List.map (fun _ -> draw r) rejecting);
      check Alcotest.int (label "sampler draws consumed by rejections") after
        (Stdx.Rng.bits r);
      let r = fresh () in
      check ints (label "int with rejections") rejecting
        (List.map (fun _ -> Stdx.Rng.int r big) rejecting);
      check Alcotest.int (label "draws consumed by rejections") after
        (Stdx.Rng.bits r))
    rng_golden

(* [split_nth t k] is the k-th of a run of [split_into] calls and leaves
   [t] alone; [advance t k] is k draws. Checked against the literal
   sequence of calls for arbitrary seeds and indices. *)
let test_rng_indexed_split =
  qcheck "split_nth and advance = a run of split_into"
    QCheck.(pair int (int_range 0 300))
    (fun (seed, k) ->
      let seq = Stdx.Rng.create seed and child = Stdx.Rng.create 0 in
      for _ = 0 to k do
        Stdx.Rng.split_into seq child
      done;
      let t = Stdx.Rng.create seed and nth = Stdx.Rng.create 1 in
      Stdx.Rng.split_nth t k nth;
      let untouched = Stdx.Rng.bits t = Stdx.Rng.bits (Stdx.Rng.create seed) in
      let same_child = Stdx.Rng.next_int64 nth = Stdx.Rng.next_int64 child in
      let adv = Stdx.Rng.create seed in
      Stdx.Rng.advance adv (k + 1);
      untouched && same_child
      && Stdx.Rng.next_int64 adv = Stdx.Rng.next_int64 seq)

let test_rng_sampler_invalid () =
  Alcotest.check_raises "bound 0"
    (Invalid_argument "Rng.int: bound must be positive") (fun () ->
      ignore (Stdx.Rng.int_sampler 0 : Stdx.Rng.t -> int));
  Alcotest.check_raises "bound past 2^61"
    (Invalid_argument "Rng.int: bound too large") (fun () ->
      ignore (Stdx.Rng.int_sampler ((1 lsl 61) + 1) : Stdx.Rng.t -> int))

let test_rng_pick_list () =
  let r = Stdx.Rng.create 5 and l = [ 3; 1; 4; 1; 5 ] in
  for _ = 1 to 200 do
    check Alcotest.bool "picks a member" true (List.mem (Stdx.Rng.pick_list r l) l)
  done;
  check Alcotest.int "singleton" 9 (Stdx.Rng.pick_list r [ 9 ]);
  Alcotest.check_raises "empty list" (Invalid_argument "Rng.pick_list: empty list")
    (fun () -> ignore (Stdx.Rng.pick_list r []))

(* Drawing allocates nothing: the hostile engine loop draws per message,
   so a boxed state or a closure per call shows up in its GC profile.
   Nor does [split_into], which the greedy adversary calls per probe. *)
let test_rng_no_alloc () =
  let r = Stdx.Rng.create 3 and child = Stdx.Rng.create 4 in
  let draw = Stdx.Rng.int_sampler 17 in
  let acc = ref 0 in
  let w0 = Gc.minor_words () in
  for i = 1 to 1000 do
    acc := !acc + Stdx.Rng.int r 17 + Stdx.Rng.bits r + draw r;
    if Stdx.Rng.bool r then incr acc;
    Stdx.Rng.split_into r child;
    Stdx.Rng.split_nth r i child;
    Stdx.Rng.advance r i
  done;
  let words = Gc.minor_words () -. w0 in
  ignore (Sys.opaque_identity !acc);
  check Alcotest.bool
    (Printf.sprintf
       "4000 draws and 1000 each of split_into, split_nth and advance \
        allocate %.0f minor words"
       words)
    true (words < 64.)

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

let test_mul_checked () =
  check Alcotest.int "6 * 7" 42 (Stdx.Imath.mul_checked 6 7);
  check Alcotest.int "signs" (-12) (Stdx.Imath.mul_checked (-3) 4);
  check Alcotest.int "zero absorbs max_int" 0 (Stdx.Imath.mul_checked 0 max_int);
  check Alcotest.int "largest exact product" max_int
    (Stdx.Imath.mul_checked 1 max_int);
  List.iter
    (fun (a, b) ->
      Alcotest.check_raises
        (Printf.sprintf "%d * %d overflows" a b)
        (Failure "Imath: integer overflow")
        (fun () -> ignore (Stdx.Imath.mul_checked a b)))
    [
      (max_int, 2);
      (1 lsl 32, 1 lsl 31);
      (min_int, -1);
      (-1, min_int);
      (-(1 lsl 40), 1 lsl 40);
    ];
  check Alcotest.int "-1 * max_int is exact" (-max_int)
    (Stdx.Imath.mul_checked (-1) max_int);
  check Alcotest.int "min_int * 1 is exact" min_int
    (Stdx.Imath.mul_checked min_int 1)

let test_ceil_log2 () =
  check Alcotest.int "bits_for 4" 2 (Stdx.Imath.bits_for 4);
  check Alcotest.int "bits_for 5" 3 (Stdx.Imath.bits_for 5);
  check Alcotest.int "bits_for 1024" 10 (Stdx.Imath.bits_for 1024);
  check Alcotest.int "bits_for 1025" 11 (Stdx.Imath.bits_for 1025);
  Alcotest.check_raises "no bits for an empty set"
    (Invalid_argument "Imath.bits_for") (fun () ->
      ignore (Stdx.Imath.bits_for 0))

let test_ceil_log2_prop =
  qcheck "2^(bits_for n) >= n > 2^(bits_for n - 1) for n >= 2"
    QCheck.(int_range 2 1_000_000)
    (fun n ->
      let b = Stdx.Imath.bits_for n in
      Stdx.Imath.pow 2 b >= n && Stdx.Imath.pow 2 (b - 1) < n)

let test_bits_for () =
  check Alcotest.int "bits_for 1 (singleton still 1 bit)" 1 (Stdx.Imath.bits_for 1);
  check Alcotest.int "bits_for 2" 1 (Stdx.Imath.bits_for 2);
  check Alcotest.int "bits_for 3" 2 (Stdx.Imath.bits_for 3);
  check Alcotest.int "bits_for 2304" 12 (Stdx.Imath.bits_for 2304)

let test_imod_prop =
  qcheck "imod in [0, m) and congruent"
    QCheck.(pair (int_range (-100000) 100000) (int_range 1 997))
    (fun (a, m) ->
      let r = Stdx.Imath.imod a m in
      r >= 0 && r < m && (a - r) mod m = 0)

(* ------------------------------------------------------------------ *)
(* Stats                                                                *)
(* ------------------------------------------------------------------ *)

let test_stats_mean () =
  check (Alcotest.float 1e-9) "mean" 2.5 (Stdx.Stats.mean [ 1.0; 2.0; 3.0; 4.0 ])

let test_stats_stddev () =
  check (Alcotest.float 1e-9) "stddev of constant" 0.0
    (Stdx.Stats.summarize_ints [ 5; 5; 5 ]).Stdx.Stats.stddev;
  check (Alcotest.float 1e-6) "sample stddev" 1.0
    (Stdx.Stats.summarize_ints [ 1; 2; 3 ]).Stdx.Stats.stddev

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
  raises "percentile" (fun () -> Stdx.Stats.percentile 0.5 nan_list)

let test_stats_order_with_infinities () =
  (* Float.compare/min/max keep total order on the non-NaN extremes *)
  let xs = [ Float.infinity; -1.0; 0.0; Float.neg_infinity ] in
  check (Alcotest.float 1e-9) "median sorts correctly" (-0.5)
    (Stdx.Stats.percentile 0.5 xs)

let test_stats_singleton () =
  let s = Stdx.Stats.summarize_ints [ 7 ] in
  check Alcotest.int "count" 1 s.Stdx.Stats.count;
  List.iter
    (fun (name, x) -> check (Alcotest.float 1e-9) name 7.0 x)
    Stdx.Stats.
      [
        ("mean", s.mean); ("min", s.min); ("max", s.max); ("median", s.median);
        ("p90", s.p90); ("p99", s.p99);
      ];
  check (Alcotest.float 1e-9) "one sample has no spread" 0.0 s.Stdx.Stats.stddev

let test_stats_pp_summary () =
  check Alcotest.string "one line, fixed precision"
    "n=3 mean=2.00 sd=1.00 min=1 med=2.0 p90=2.8 p99=3.0 max=3"
    (Format.asprintf "%a" Stdx.Stats.pp_summary
       (Stdx.Stats.summarize_ints [ 3; 1; 2 ]))

let test_stats_percentile_range () =
  List.iter
    (fun p ->
      Alcotest.check_raises
        (Printf.sprintf "p = %g" p)
        (Invalid_argument "Stats.percentile: p outside [0,1]")
        (fun () -> ignore (Stdx.Stats.percentile p [ 1.0; 2.0 ])))
    [ -0.01; 1.01 ]

(* ------------------------------------------------------------------ *)
(* Pool                                                                 *)
(* ------------------------------------------------------------------ *)

exception Boom of int

let test_pool_run_in_order () =
  let a = Stdx.Pool.exec ~jobs:4 10 (fun ~worker:_ i -> i * 3) in
  check (Alcotest.array Alcotest.int) "slot i holds f i"
    (Array.init 10 (fun i -> i * 3))
    a

let test_pool_empty_and_oversubscribed () =
  check (Alcotest.array Alcotest.int) "n = 0" [||]
    (Stdx.Pool.exec ~jobs:4 0 (fun ~worker:_ i -> i));
  check (Alcotest.array Alcotest.int) "jobs > n" [| 0; 1 |]
    (Stdx.Pool.exec ~jobs:16 2 (fun ~worker:_ i -> i));
  check Alcotest.int "workers clamped to n" 2 (Stdx.Pool.workers ~jobs:16 2);
  check Alcotest.int "n = 0: one worker" 1 (Stdx.Pool.workers ~jobs:4 0);
  let ids = Array.make 16 (-1) in
  ignore (Stdx.Pool.exec ~jobs:3 16 (fun ~worker i -> ids.(i) <- worker));
  check Alcotest.bool "worker ids below workers ~jobs n" true
    (Array.for_all (fun w -> w >= 0 && w < Stdx.Pool.workers ~jobs:3 16) ids)

let test_pool_invalid_args () =
  let raises name f =
    check Alcotest.bool name true
      (try ignore (f ()); false with Invalid_argument _ -> true)
  in
  let id ~worker:_ i = i in
  raises "jobs = 0 rejected" (fun () -> Stdx.Pool.exec ~jobs:0 3 id);
  raises "negative n rejected" (fun () -> Stdx.Pool.exec ~jobs:2 (-1) id);
  raises "non-finite cost rejected" (fun () ->
      Stdx.Pool.exec ~cost:(fun _ -> Float.nan) 3 id)

let test_pool_propagates_lowest_failure () =
  (* Several tasks fail; the pool must deterministically re-raise the
     one with the lowest index, regardless of scheduling. *)
  let observed =
    try
      ignore
        (Stdx.Pool.exec ~jobs:4 16 (fun ~worker:_ i ->
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
      Stdx.Pool.exec ~jobs ?cost:(List.nth pool_costs tag) n
        (fun ~worker:_ i -> (a.(i) * 7) - i)
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
            (Stdx.Pool.exec ~jobs:4 ?cost 16 (fun ~worker:_ i ->
                 if i mod 5 = 2 then raise (Boom i) else i));
          None
        with Boom i -> Some i
      in
      check
        (Alcotest.option Alcotest.int)
        (Printf.sprintf "cost model %d: lowest failing index wins" tag)
        (Some 2) observed)
    pool_costs

(* The indices the tasks see at jobs = 1, i.e. the claim order. *)
let claim_order ?cost n =
  let seen = ref [] in
  ignore (Stdx.Pool.exec ?cost n (fun ~worker:_ i -> seen := i :: !seen));
  List.rev !seen

let test_pool_claim_order () =
  let ints = Alcotest.(list int) in
  check ints "no cost: index order" [ 0; 1; 2; 3; 4; 5 ] (claim_order 6);
  check ints "decreasing cost, ties by lower index" [ 4; 1; 3; 5; 0; 2 ]
    (claim_order ~cost:(fun i -> [| 1.; 5.; 1.; 2.; 9.; 2. |].(i)) 6);
  check ints "constant cost: index order" [ 0; 1; 2; 3 ]
    (claim_order ~cost:(fun _ -> 7.0) 4)

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
  check Alcotest.string "float cell" "3.14" (Stdx.Table.cell_float 3.14159)

(* ------------------------------------------------------------------ *)
(* Json                                                                 *)
(* ------------------------------------------------------------------ *)

(* Each malformed input is rejected with the byte offset of the error. *)
let test_json_rejects () =
  List.iter
    (fun (input, offset) ->
      match Stdx.Json.parse_result input with
      | Ok _ -> Alcotest.failf "accepted %S" input
      | Error msg ->
        let prefix = Printf.sprintf "byte %d: " offset in
        check Alcotest.bool
          (Printf.sprintf "%S: error %S names byte %d" input msg offset)
          true
          (Astring.String.is_prefix ~affix:prefix msg))
    [
      ("01", 1);
      ("-01", 2);
      ("\"a\tb\"", 2);
      ("\"a\001b\"", 2);
      ("\"\\u12\"", 5);
      ("\"\\u_12a\"", 3);
      ("[1,]", 3);
      ("{\"a\":1,}", 7);
      ("{} x", 3);
      ("[0]]", 3);
      (* Surrogates outside a high-then-low pair, at their backslash. *)
      ("\"\\ud83d\"", 1);
      ("\"\\ude00\"", 1);
      ("\"ab\\ude00\\ud83d\"", 3);
      ("\"\\ud83d\\u0041\"", 1);
    ]

let trace_line () =
  Sim.Trace.to_json
    (Sim.Trace.Meta
       { label = "A(4,1)"; n = 4; f = 1; c = 2; time_bound = Some 2304 })

(* One complete heartbeat stream (a cell beat, then the final line) with
   [label] and a counter named [name] in its live registry. *)
let heartbeat_lines ~label ~name =
  let path = Filename.temp_file "heartbeat" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc ->
          let hb = Stdx.Heartbeat.create ~label ~interval_s:0.0 ~out:oc () in
          let m = Stdx.Metrics.create () in
          Stdx.Metrics.incr m name;
          Stdx.Heartbeat.set_totals hb ~cells:1 ~cost:1.0;
          Stdx.Heartbeat.add hb m;
          Stdx.Heartbeat.cell_done ~worker:0 ~busy_s:0.0
            ~now:(Stdx.Metrics.wall_clock ()) ~cost:1.0 hb;
          Stdx.Heartbeat.finish hb);
      In_channel.with_open_bin path In_channel.input_all
      |> String.split_on_char '\n'
      |> List.filter (fun l -> l <> ""))

let corpus_line () =
  let dir = List.find Sys.file_exists [ "corpus"; "test/corpus" ] in
  In_channel.with_open_bin
    (Filename.concat dir "leader4c5_f1.jsonl")
    In_channel.input_line
  |> Option.get

let test_json_accepts () =
  List.iter
    (fun input ->
      match Stdx.Json.parse_result input with
      | Ok _ -> ()
      | Error msg -> Alcotest.failf "rejected %S: %s" input msg)
    ([
       "0";
       "-0.5e-3";
       "\"\195\169\"";
       "{\"a\":{},\"b\":[[],{}],\"c\":[{}]}";
       trace_line ();
       corpus_line ();
     ]
    @ heartbeat_lines ~label:"run" ~name:"engine.runs");
  check Alcotest.bool "0 is an int" true (Stdx.Json.parse "0" = Stdx.Json.Int 0);
  (* \u escapes decode to UTF-8; a surrogate pair is one character. *)
  check Alcotest.bool "\\u escapes read back as raw UTF-8" true
    (Stdx.Json.parse "\"caf\\u00e9 \\ud83d\\ude00\""
    = Stdx.Json.String "caf\xc3\xa9 \xf0\x9f\x98\x80");
  check Alcotest.bool "-0.5e-3 is a float" true
    (Stdx.Json.parse "-0.5e-3" = Stdx.Json.Float (-0.5e-3))

(* The scanner boxes no byte: parsing a 110 KB value allocates its
   result and little else, where a box per byte scanned would cost
   two minor words each (the old scanner: about 220,000). *)
let test_json_scan_allocation () =
  let body = String.make 100_000 'x' in
  let text = "  [\"" ^ body ^ "\", 1234567, " ^ String.make 10_000 ' ' ^ "true]" in
  ignore (Stdx.Json.parse text);
  let before = Gc.minor_words () in
  ignore (Sys.opaque_identity (Stdx.Json.parse text));
  let words = Gc.minor_words () -. before in
  check Alcotest.bool
    (Printf.sprintf "%.0f minor words for %d bytes" words (String.length text))
    true
    (words < 20_000.0)

let test_json_writers () =
  List.iter
    (fun n ->
      let b = Buffer.create 16 in
      Stdx.Json.add_int b n;
      check Alcotest.string "add_int is string_of_int" (string_of_int n)
        (Buffer.contents b))
    [ 0; 7; -7; 10; 1234567890; max_int; min_int; min_int + 1 ];
  List.iter
    (fun s ->
      check Alcotest.string "escape" s
        (match Stdx.Json.parse ("\"" ^ Stdx.Json.escape s ^ "\"") with
        | Stdx.Json.String back -> back
        | _ -> "not a string"))
    [ ""; "plain"; "q\"uote"; "back\\slash"; "ctl\001\n\t\r" ];
  check Alcotest.string "%.17g spelling of awkward floats"
    "0.30000000000000004 1e+21 -0 4.9406564584124654e-324 100 \
     2.5000000000000001e-05"
    (String.concat " "
       (List.map Stdx.Json.float_to_string
          [ 0.1 +. 0.2; 1e21; -0.0; 4.9406564584124654e-324; 100.0; 2.5e-5 ]))

(* [Json.lines]: the line rule every JSONL reader shares. *)
let json_lines text = List.of_seq (Stdx.Json.lines text)
let numbered = Alcotest.(list (pair int string))

let test_json_lines_blank () =
  check numbered "blank and whitespace-only lines skipped, still counted"
    [ (1, "a"); (4, "b"); (6, " c ") ]
    (json_lines "a\n\n \t\nb\n\n c \n")

let test_json_lines_cr () =
  check numbered "a \\r before \\n stays in its line"
    [ (1, "a\r"); (3, "b\r") ]
    (json_lines "a\r\n\r\nb\r\n")

let test_json_lines_unterminated () =
  check numbered "a last line without its newline is a line"
    [ (1, "a"); (2, "b") ]
    (json_lines "a\nb");
  check numbered "a newline-only tail adds nothing" [ (1, "a") ]
    (json_lines "a\n")

let test_json_lines_empty () =
  List.iter
    (fun text -> check numbered (Printf.sprintf "%S" text) [] (json_lines text))
    [ ""; "\n"; "\n\n"; " \r\n" ]

(* Labels and metric names with control bytes still give parseable
   JSONL, and the name comes back byte for byte. *)
let test_json_escapes_control_bytes () =
  let name = "a\tb\001" in
  let counter json =
    Stdx.Json.(to_int name (field (field json "counters") name))
  in
  let m = Stdx.Metrics.create () in
  Stdx.Metrics.incr m name;
  (match Stdx.Json.parse_result (Stdx.Metrics.to_json (Stdx.Metrics.snapshot m))
   with
  | Error msg -> Alcotest.failf "metrics JSON: %s" msg
  | Ok json -> check Alcotest.int "metric name round-trips" 1 (counter json));
  List.iter
    (fun line ->
      match Stdx.Json.parse_result line with
      | Error msg -> Alcotest.failf "heartbeat line %S: %s" line msg
      | Ok json ->
        check Alcotest.string "label round-trips" name
          Stdx.Json.(to_string "label" (field json "label"));
        check Alcotest.int "metric name round-trips" 1
          (counter Stdx.Json.(field json "metrics")))
    (heartbeat_lines ~label:name ~name)

let suite =
  [
    ( "stdx.rng",
      [
        case "determinism" test_rng_determinism;
        case "seed sensitivity" test_rng_seed_sensitivity;
        case "split diverges" test_rng_split_diverges;
        test_rng_int_bounds;
        case "int invalid bound" test_rng_int_invalid;
        case "int covers range" test_rng_int_covers;
        case "float range" test_rng_float_range;
        case "bool balanced" test_rng_bool_balanced;
        test_sample_without_replacement;
        case "golden streams" test_rng_golden;
        case "draws do not allocate" test_rng_no_alloc;
        test_rng_indexed_split;
        case "int_sampler invalid bound" test_rng_sampler_invalid;
        case "pick_list" test_rng_pick_list;
      ] );
    ( "stdx.imath",
      [
        case "pow basics" test_pow_basics;
        case "pow overflow" test_pow_overflow;
        case "pow negative" test_pow_negative_exponent;
        case "mul_checked" test_mul_checked;
        case "bits_for: ceil_log2 values" test_ceil_log2;
        test_ceil_log2_prop;
        case "bits_for" test_bits_for;
        test_imod_prop;
      ] );
    ( "stdx.stats",
      [
        case "mean" test_stats_mean;
        case "stddev" test_stats_stddev;
        case "percentile" test_stats_percentile;
        case "percentile interpolation" test_stats_percentile_interpolates;
        case "summary" test_stats_summary;
        case "empty raises" test_stats_empty_raises;
        case "NaN rejected" test_stats_nan_rejected;
        case "total order with infinities" test_stats_order_with_infinities;
        case "singleton summary" test_stats_singleton;
        case "pp_summary" test_stats_pp_summary;
        case "percentile p outside [0,1]" test_stats_percentile_range;
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
      ] );
    ( "stdx.json",
      [
        case "malformed input rejected at its byte" test_json_rejects;
        case "valid input and writer lines accepted" test_json_accepts;
        case "control bytes in names escaped" test_json_escapes_control_bytes;
        case "lines: blank lines skipped, still counted" test_json_lines_blank;
        case "lines: CR stays in the line" test_json_lines_cr;
        case "lines: unterminated last line kept" test_json_lines_unterminated;
        case "lines: no lines in blank text" test_json_lines_empty;
        case "scanning boxes no byte" test_json_scan_allocation;
        case "writers: ints, escapes, %.17g floats" test_json_writers;
      ] );
    ( "stdx.table",
      [
        case "renders" test_table_renders;
        case "width mismatch" test_table_width_mismatch;
        case "alignment" test_table_alignment;
        case "cells" test_table_cells;
      ] );
  ]
