(* qcheck properties of the state codecs behind the flat engine path.

   The Algo.Spec.codec contract promises a dense, order-preserving
   bijection between the state set and [0, num_states): decoding inverts
   encoding, every code is in range, the code order agrees with
   compare_state, and (when the state set is enumerable) the codes of
   all_states are exactly 0 .. num_states - 1. Checked for every family
   that ships a codec — the trivial counters, the randomised 1-bit
   counter, a synthesised/derived codec, the boost towers A(4,1),
   A(12,3) and A(36,7) from Theorem 1's recursion, an ablated tower
   and the sampled pulling counter. Every family's kernel
   must also honour the load/set announcement protocol of
   Algo.Spec.kernel, and the towers pin how fresh_kernel instances may
   share state. *)

let check = Alcotest.check
let case name f = Alcotest.test_case name `Quick f

let qcheck ?(count = 300) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

type family = F : string * 's Algo.Spec.t -> family

let a41 ~c =
  Counting.Boost.construct ~inner:(Counting.Trivial.single ~c:2304) ~k:4
    ~big_f:1 ~big_c:c

let a12_3 ~c =
  Counting.Boost.construct ~inner:(a41 ~c:960).Counting.Boost.spec ~k:3
    ~big_f:3 ~big_c:c

let a36_7 ~c =
  Counting.Boost.construct ~inner:(a12_3 ~c:1728).Counting.Boost.spec ~k:3
    ~big_f:7 ~big_c:c

(* Each family under test, with its spec. Boost towers exercise the
   structural codec composition; [derived] exercises derive_codec's
   all_states enumeration. *)
let families () =
  (* Towers whose kernel is the generic one: the naive phase-king
     ablation and the Section 5 sampled pulling counter. *)
  let ablated =
    (Counting.Boost.construct_ablated ~ablation:Counting.Boost.Naive_phase_king
       ~inner:(Counting.Trivial.single ~c:2304) ~k:4 ~big_f:1 ~big_c:2)
      .Counting.Boost.spec
  in
  let sampled =
    (Pulling.Sampled.construct ~inner:(a41 ~c:960).Counting.Boost.spec ~k:3
       ~big_f:3 ~big_c:8 ~samples:4)
      .Pulling.Sampled.spec
  in
  let a41 = (a41 ~c:2).Counting.Boost.spec in
  let a12_3 = (a12_3 ~c:1728).Counting.Boost.spec in
  let a36_7 = (a36_7 ~c:2).Counting.Boost.spec in
  (* An inner counter too wide for the flat kernel's view tables, so the
     kernel decodes views by division instead. *)
  let a41_wide =
    (Counting.Boost.construct
       ~inner:(Counting.Trivial.single ~c:(2304 * 256))
       ~k:4 ~big_f:1 ~big_c:2)
      .Counting.Boost.spec
  in
  let leader = Counting.Trivial.follow_leader ~n:4 ~c:5 in
  let derived =
    Algo.Spec.with_derived_codec { leader with Algo.Spec.codec = None }
  in
  [
    F ("trivial(c=16)", Counting.Trivial.single ~c:16);
    F ("follow-leader(n=4,c=5)", leader);
    F ("rand-counter(n=4,f=1)", Counting.Rand_counter.make ~n:4 ~f:1);
    F ("derived(follow-leader)", derived);
    F ("boost A(4,1)", a41);
    F ("boost A(12,3)", a12_3);
    F ("boost A(36,7)", a36_7);
    F ("boost A(4,1), untabulated views", a41_wide);
    F ("ablated A(4,1)", ablated);
    F ("sampled A(12,3)", sampled);
  ]

let codec_of (spec : 's Algo.Spec.t) label : 's Algo.Spec.codec =
  match spec.Algo.Spec.codec with
  | Some c -> c
  | None -> Alcotest.failf "%s: family has no codec" label

(* States are sampled through the spec's own random_state, seeded from
   the qcheck-generated integer — the only generic generator that works
   for every state type, including the boost towers' nested records. *)
let state_of (spec : 's Algo.Spec.t) seed =
  spec.Algo.Spec.random_state (Stdx.Rng.create seed)

let sign x = compare x 0

let roundtrip_and_range (F (label, spec)) =
  let codec = codec_of spec label in
  qcheck
    (Printf.sprintf "%s: decode (encode s) = s and code in range" label)
    QCheck.small_nat
    (fun seed ->
      let s = state_of spec seed in
      let code = codec.Algo.Spec.encode_state s in
      code >= 0
      && code < codec.Algo.Spec.num_states
      && spec.Algo.Spec.equal_state s (codec.Algo.Spec.decode_state code))

let order_agrees (F (label, spec)) =
  let codec = codec_of spec label in
  qcheck
    (Printf.sprintf "%s: code order agrees with compare_state" label)
    QCheck.(pair small_nat small_nat)
    (fun (s1, s2) ->
      let a = state_of spec s1 and b = state_of spec s2 in
      sign
        (compare
           (codec.Algo.Spec.encode_state a)
           (codec.Algo.Spec.encode_state b))
      = sign (spec.Algo.Spec.compare_state a b))

let output_agrees (F (label, spec)) =
  let codec = codec_of spec label in
  qcheck
    (Printf.sprintf "%s: output_code agrees with output" label)
    QCheck.(pair small_nat (int_range 0 100))
    (fun (seed, self_raw) ->
      let s = state_of spec seed in
      let self = self_raw mod spec.Algo.Spec.n in
      codec.Algo.Spec.output_code ~self (codec.Algo.Spec.encode_state s)
      = spec.Algo.Spec.output ~self s)

(* The kernel protocol: after [load v0] and a random sequence of [set]s
   reaching [v] — interleaved with steps and output-only steps, so a
   kernel's lazily refreshed aggregates and synced views are exercised
   mid-sequence through both entry points, and including sets that
   rewrite a slot's current code — stepping every node returns what a
   fresh kernel returns after [load v] alone, and what the spec's own
   transition returns on the decoded vector; and [step_output] returns
   [output_code] of that step on both kernels. *)
let incremental_agrees (F (label, spec)) =
  let codec = codec_of spec label in
  let n = spec.Algo.Spec.n in
  qcheck ~count:100
    (Printf.sprintf "%s: load then sets = fresh kernel's load" label)
    QCheck.small_nat
    (fun seed ->
      let rng = Stdx.Rng.create seed in
      let draw () = codec.Algo.Spec.random_code rng in
      let recv = Array.init n (fun _ -> draw ()) in
      let kernel = codec.Algo.Spec.fresh_kernel () in
      kernel.Algo.Spec.load recv;
      for _ = 1 to Stdx.Rng.int rng ((2 * n) + 2) do
        let u = Stdx.Rng.int rng n in
        let code = if Stdx.Rng.int rng 4 = 0 then recv.(u) else draw () in
        recv.(u) <- code;
        kernel.Algo.Spec.set u code;
        match Stdx.Rng.int rng 3 with
        | 0 ->
          ignore
            (kernel.Algo.Spec.step ~self:(Stdx.Rng.int rng n)
               ~rng:(Stdx.Rng.create seed) recv)
        | 1 ->
          ignore
            (kernel.Algo.Spec.step_output ~self:(Stdx.Rng.int rng n)
               ~rng:(Stdx.Rng.create seed) recv)
        | _ -> ()
      done;
      let v = Array.copy recv in
      let fresh = codec.Algo.Spec.fresh_kernel () in
      fresh.Algo.Spec.load v;
      let decoded = Array.map codec.Algo.Spec.decode_state v in
      let step_seed = Stdx.Rng.bits rng in
      List.for_all
        (fun self ->
          let step (k : Algo.Spec.kernel) a =
            k.Algo.Spec.step ~self ~rng:(Stdx.Rng.create (step_seed + self)) a
          in
          let step_output (k : Algo.Spec.kernel) a =
            k.Algo.Spec.step_output ~self
              ~rng:(Stdx.Rng.create (step_seed + self))
              a
          in
          let expected = step fresh v in
          let expected_output = codec.Algo.Spec.output_code ~self expected in
          step_output kernel recv = expected_output
          && step kernel recv = expected
          && step_output fresh v = expected_output
          && codec.Algo.Spec.encode_state
               (spec.Algo.Spec.transition ~self
                  ~rng:(Stdx.Rng.create (step_seed + self))
                  decoded)
             = expected)
        (List.init n Fun.id))

(* The boost kernel's F+1-supported minimum (the value instruction
   I_{3l+1} adopts), kept up to date by histogram-bin crossings on [set]:
   deterministic vectors whose inner counters all read round counter
   R = 1, so every node's next a-register is (min + 1) mod C. [a_regs]
   are the a-registers of the N slots of the loaded vector; the kernel
   is stepped once (making its aggregates current), then slot [u] is
   set to register [a'], and every node's [step] and [step_output] must
   equal a fresh kernel's on the new vector, with the minimum moved to
   [min']. *)
let supported_min_case label (t : 's Counting.Boost.t) ~inner ~a_regs ~u ~a'
    ~min' =
  case label (fun () ->
      let spec = t.Counting.Boost.spec in
      let codec = codec_of spec label in
      let n = spec.Algo.Spec.n and c = spec.Algo.Spec.c in
      let code a =
        codec.Algo.Spec.encode_state { Counting.Boost.inner; a; d = true }
      in
      let recv = Array.map code a_regs in
      let kernel = codec.Algo.Spec.fresh_kernel () in
      kernel.Algo.Spec.load recv;
      ignore (kernel.Algo.Spec.step ~self:0 ~rng:(Stdx.Rng.create 1) recv);
      recv.(u) <- code a';
      kernel.Algo.Spec.set u recv.(u);
      let fresh = codec.Algo.Spec.fresh_kernel () in
      fresh.Algo.Spec.load recv;
      for self = 0 to n - 1 do
        let rng () = Stdx.Rng.create (100 + self) in
        let expected = fresh.Algo.Spec.step ~self ~rng:(rng ()) recv in
        check Alcotest.int
          (Printf.sprintf "node %d: step_output" self)
          ((min' + 1) mod c)
          (kernel.Algo.Spec.step_output ~self ~rng:(rng ()) recv);
        check Alcotest.int
          (Printf.sprintf "node %d: step" self)
          expected
          (kernel.Algo.Spec.step ~self ~rng:(rng ()) recv)
      done)

let supported_min_cases =
  let a41 = a41 ~c:8 and a12_3 = a12_3 ~c:1728 in
  let s x = Some x in
  (* A(4,1): inner counter value 1 is R = 1 mod tau = 9; F + 1 = 2.
     A(12,3): its inner A(4,1) outputs its a-register, 1, and
     R = 1 mod tau = 15; F + 1 = 4. *)
  let inner12 = { Counting.Boost.inner = 1; a = Some 1; d = true } in
  [
    supported_min_case "A(4,1): set drops the minimum's bin from F+1 to F"
      a41 ~inner:1
      ~a_regs:[| s 2; s 2; s 5; s 5 |]
      ~u:0 ~a':(s 5) ~min':5;
    supported_min_case "A(4,1): set lifts a bin below the minimum to F+1"
      a41 ~inner:1
      ~a_regs:[| s 2; s 5; s 5; None |]
      ~u:3 ~a':(s 2) ~min':2;
    supported_min_case "A(12,3): set drops the minimum's bin from F+1 to F"
      a12_3 ~inner:inner12
      ~a_regs:
        (Array.concat
           [ Array.make 4 (s 5); Array.make 4 (s 7); Array.make 4 (s 9) ])
      ~u:2 ~a':(s 9) ~min':7;
    supported_min_case "A(12,3): set lifts a bin below the minimum to F+1"
      a12_3 ~inner:inner12
      ~a_regs:
        (Array.concat
           [ Array.make 3 (s 5); Array.make 4 (s 7); Array.make 5 None ])
      ~u:11 ~a':(s 5) ~min':5;
  ]

(* Density: with all_states available, the encodings are a permutation
   of 0 .. num_states - 1 (deterministic, so a plain case). *)
let density_cases =
  List.filter_map
    (fun (F (label, spec)) ->
      match spec.Algo.Spec.all_states with
      | None -> None
      | Some states ->
        Some
          (case (Printf.sprintf "%s: codes dense in [0, num_states)" label)
             (fun () ->
               let codec = codec_of spec label in
               check Alcotest.int (label ^ ": num_states = |all_states|")
                 (List.length states) codec.Algo.Spec.num_states;
               let codes =
                 List.sort compare
                   (List.map codec.Algo.Spec.encode_state states)
               in
               check
                 (Alcotest.list Alcotest.int)
                 (label ^ ": sorted codes are 0 .. num_states - 1")
                 (List.init codec.Algo.Spec.num_states Fun.id)
                 codes)))
    (families ())

(* A(12,3) has ~1.5e10 states per node: num_states must still be exact,
   positive, and covered by state_bits (the codec composition refuses to
   build — leaving the tower without a codec, which the engine rejects —
   on overflow instead of wrapping). *)
let test_big_tower_num_states () =
  List.iter
    (fun (F (label, spec)) ->
      let codec = codec_of spec label in
      check Alcotest.bool (label ^ ": num_states positive") true
        (codec.Algo.Spec.num_states >= 1);
      check Alcotest.bool
        (label ^ ": state_bits covers num_states")
        true
        (spec.Algo.Spec.state_bits >= 63
        || codec.Algo.Spec.num_states
           <= 1 lsl spec.Algo.Spec.state_bits))
    (families ())

(* Every family must also pass the spec validator, which re-checks the
   codec contract against all_states when present. *)
let test_families_validate () =
  List.iter
    (fun (F (label, spec)) ->
      match Algo.Spec.validate_exn spec with
      | _ -> ()
      | exception Invalid_argument msg ->
        Alcotest.failf "%s: validate failed: %s" label msg)
    (families ())

(* The flat-kernel sharing contract of Algo.Spec.codec.fresh_kernel: a
   Boost tower's kernels share the tower's immutable lookup tables (built
   on the first fresh_kernel () call) but never their mutable scratch —
   the decoded views, histogram and per-block inner kernels. Kernels are
   driven through the codec's code-space view, free of the state type. *)

type tower = {
  n : int;
  random_code : Stdx.Rng.t -> int;
  fresh_kernel : unit -> Algo.Spec.kernel;
}

let flat_of (F (label, spec)) =
  let c = codec_of spec label in
  {
    n = spec.Algo.Spec.n;
    random_code = c.Algo.Spec.random_code;
    fresh_kernel = c.Algo.Spec.fresh_kernel;
  }

(* Each builder constructs its tower anew, so no kernel table of any
   level has been built when it returns. *)
let towers =
  let tower label build = (label, fun () -> flat_of (F (label, build ()))) in
  [
    tower "A(4,1)" (fun () -> (a41 ~c:2).Counting.Boost.spec);
    tower "A(12,3)" (fun () -> (a12_3 ~c:1728).Counting.Boost.spec);
    tower "A(36,7)" (fun () -> (a36_7 ~c:2).Counting.Boost.spec);
  ]

(* [len] (recipient, received vector, whole redraw?) steps drawn with
   random_code. Every fifth vector is redrawn whole; the others change
   0-2 slots of their predecessor, so a replay drives a kernel through
   loads, unchanged vectors and announced single-slot changes. *)
let step_sequence (t : tower) ~seed ~len =
  let rng = Stdx.Rng.create seed in
  let cur = Array.make t.n 0 in
  Array.init len (fun i ->
      let whole = i mod 5 = 0 in
      if whole then
        Array.iteri (fun u _ -> cur.(u) <- t.random_code rng) cur
      else
        for _ = 1 to Stdx.Rng.int rng 3 do
          cur.(Stdx.Rng.int rng t.n) <- t.random_code rng
        done;
      (Stdx.Rng.int rng t.n, Array.copy cur, whole))

(* Drives one kernel through a step sequence by its protocol, over a
   private vector: whole redraws are loaded, other changes are written
   and announced slot by slot. *)
let driver (kernel : Algo.Spec.kernel) ~seed =
  let rng = Stdx.Rng.create seed in
  let recv = ref [||] in
  fun (self, received, whole) ->
    if whole then begin
      recv := Array.copy received;
      kernel.Algo.Spec.load !recv
    end
    else
      Array.iteri
        (fun u code ->
          if !recv.(u) <> code then begin
            !recv.(u) <- code;
            kernel.Algo.Spec.set u code
          end)
        received;
    kernel.Algo.Spec.step ~self ~rng !recv

let replay kernel ~seed seq = Array.map (driver kernel ~seed) seq

let codes = Alcotest.(array int)

(* Two kernels of one codec, stepped in alternation on different
   sequences, each return what a lone kernel returns on its sequence. *)
let test_kernel_isolation (build : unit -> tower) () =
  let t = build () in
  let len = 60 in
  let s1 = step_sequence t ~seed:1 ~len and s2 = step_sequence t ~seed:2 ~len in
  let d1 = driver (t.fresh_kernel ()) ~seed:11
  and d2 = driver (t.fresh_kernel ()) ~seed:12 in
  let out1 = Array.make len 0 and out2 = Array.make len 0 in
  for i = 0 to len - 1 do
    out1.(i) <- d1 s1.(i);
    out2.(i) <- d2 s2.(i)
  done;
  check codes "first kernel = lone kernel"
    (replay (t.fresh_kernel ()) ~seed:11 s1)
    out1;
  check codes "second kernel = lone kernel"
    (replay (t.fresh_kernel ()) ~seed:12 s2)
    out2

(* Four domains, released together, make the first fresh_kernel () calls
   of a new tower (so they race to build its tables) and replay one
   sequence; each must match a reference from a separately built tower. *)
let test_concurrent_first_use (build : unit -> tower) () =
  let reference = build () in
  let seq = step_sequence reference ~seed:3 ~len:60 in
  let expected = replay (reference.fresh_kernel ()) ~seed:13 seq in
  let t = build () in
  let workers = 4 in
  let ready = Atomic.make 0 in
  let domains =
    List.init workers (fun _ ->
        Domain.spawn (fun () ->
            Atomic.incr ready;
            while Atomic.get ready < workers do
              Domain.cpu_relax ()
            done;
            replay (t.fresh_kernel ()) ~seed:13 seq))
  in
  List.iteri
    (fun i d ->
      check codes
        (Printf.sprintf "worker %d = sequential reference" i)
        expected (Domain.join d))
    domains

let sharing_cases =
  List.concat_map
    (fun (label, build) ->
      [
        case (label ^ ": kernels of one codec are isolated")
          (test_kernel_isolation build);
        case (label ^ ": concurrent first fresh_kernel")
          (test_concurrent_first_use build);
      ])
    towers

let suite =
  [
    ( "algo.codec",
      List.concat
        [
          List.map roundtrip_and_range (families ());
          List.map order_agrees (families ());
          List.map output_agrees (families ());
          List.map incremental_agrees (families ());
          density_cases;
          supported_min_cases;
          [
            case "num_states exact on big towers" test_big_tower_num_states;
            case "families validate" test_families_validate;
          ];
          sharing_cases;
        ] );
  ]
