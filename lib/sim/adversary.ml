type flat_env = {
  n : int;
  c : int;
  random_code : Stdx.Rng.t -> int;
  probe_kernel : unit -> Algo.Spec.kernel;
}

type flat_crafter = {
  craft_flat :
    rng:Stdx.Rng.t ->
    round:int ->
    states:int array ->
    faulty:int array ->
    out:int array ->
    bool;
}

type 's t = {
  name : string;
  benign : bool;
  fresh_flat : flat_env -> flat_crafter;
}

let name t = t.name

(* Allocation-free membership test for the small faulty arrays, and
   for the first [len] slots of a scratch row. A while-loop, not an
   inner recursive function — a closure here would allocate on every
   call, and [fill_correct] probes every node id each crafted round. *)
let mem_prefix (a : int array) len x =
  let i = ref 0 in
  while !i < len && a.(!i) <> x do
    incr i
  done;
  !i < len

let mem_int (a : int array) x = mem_prefix a (Array.length a) x

(* Correct ids in ascending order into [dst]; returns the count. *)
let fill_correct (dst : int array) ~n ~faulty =
  let k = ref 0 in
  for v = 0 to n - 1 do
    if not (mem_int faulty v) then begin
      dst.(!k) <- v;
      incr k
    end
  done;
  !k

(* Ring of the last [depth] packed state rows, newest at [head],
   preallocated once per phase. *)
type ring = {
  rows : int array array;
  mutable head : int;
  mutable pushes : int;
}

let ring_create ~depth ~n =
  {
    rows = Array.init depth (fun _ -> Array.make n 0);
    head = depth - 1;
    pushes = 0;
  }

let ring_push ring states n =
  let depth = Array.length ring.rows in
  ring.head <- (ring.head + 1) mod depth;
  let row = ring.rows.(ring.head) in
  for v = 0 to n - 1 do
    row.(v) <- states.(v)
  done;
  ring.pushes <- ring.pushes + 1

(* The row [delay] pushes back, or the newest row (the just-pushed
   current states) while history is still filling. *)
let ring_nth ring ~delay =
  let depth = Array.length ring.rows in
  if ring.pushes > delay then
    ring.rows.((ring.head - delay + (2 * depth)) mod depth)
  else ring.rows.(ring.head)

(* --- the zoo --------------------------------------------------------- *)

let benign () =
  {
    name = "benign";
    benign = true;
    fresh_flat =
      (fun env ->
        let n = env.n in
        {
          craft_flat =
            (fun ~rng:_ ~round:_ ~states ~faulty ~out ->
              for fi = 0 to Array.length faulty - 1 do
                out.(fi * n) <- states.(faulty.(fi))
              done;
              true);
        });
  }

let stuck () =
  {
    name = "stuck";
    benign = false;
    fresh_flat =
      (fun env ->
        let n = env.n in
        let frozen = Array.make n 0 in
        let have = ref false in
        {
          craft_flat =
            (fun ~rng:_ ~round:_ ~states ~faulty ~out ->
              let nf = Array.length faulty in
              if not !have then begin
                for fi = 0 to nf - 1 do
                  frozen.(fi) <- states.(faulty.(fi))
                done;
                have := true
              end;
              for fi = 0 to nf - 1 do
                out.(fi * n) <- frozen.(fi)
              done;
              true);
        });
  }

let random_consistent () =
  {
    name = "random-consistent";
    benign = false;
    fresh_flat =
      (fun env ->
        let n = env.n in
        {
          craft_flat =
            (fun ~rng ~round:_ ~states:_ ~faulty ~out ->
              (* One draw per faulty node, in fi order. *)
              for fi = 0 to Array.length faulty - 1 do
                out.(fi * n) <- env.random_code rng
              done;
              true);
        });
  }

let random_equivocate () =
  {
    name = "random-equivocate";
    benign = false;
    fresh_flat =
      (fun env ->
        let n = env.n in
        {
          craft_flat =
            (fun ~rng ~round:_ ~states:_ ~faulty ~out ->
              (* Draws in matrix order: fi outer, recipient inner. *)
              for fi = 0 to Array.length faulty - 1 do
                let base = fi * n in
                for r = 0 to n - 1 do
                  out.(base + r) <- env.random_code rng
                done
              done;
              false);
        });
  }

let mimic ~offset () =
  {
    name = Printf.sprintf "mimic(+%d)" offset;
    benign = false;
    fresh_flat =
      (fun env ->
        let n = env.n in
        let correct = Array.make n 0 in
        {
          craft_flat =
            (fun ~rng:_ ~round ~states ~faulty ~out ->
              let nc = fill_correct correct ~n ~faulty in
              for fi = 0 to Array.length faulty - 1 do
                let victim =
                  if nc = 0 then faulty.(fi)
                  else correct.((fi + offset + round) mod nc)
                in
                out.(fi * n) <- states.(victim)
              done;
              true);
        });
  }

let split_brain () =
  {
    name = "split-brain";
    benign = false;
    fresh_flat =
      (fun env ->
        let n = env.n in
        let correct = Array.make n 0 in
        {
          craft_flat =
            (fun ~rng:_ ~round:_ ~states ~faulty ~out ->
              let nc = fill_correct correct ~n ~faulty in
              for fi = 0 to Array.length faulty - 1 do
                let base = fi * n and own = states.(faulty.(fi)) in
                let a = if nc = 0 then own else states.(correct.(0)) in
                let b = if nc = 0 then own else states.(correct.(nc - 1)) in
                for r = 0 to n - 1 do
                  out.(base + r) <- (if r mod 2 = 0 then a else b)
                done
              done;
              false);
        });
  }

let stale ~delay () =
  if delay < 0 then invalid_arg "Adversary.stale: negative delay";
  {
    name = Printf.sprintf "stale(%d)" delay;
    benign = false;
    fresh_flat =
      (fun env ->
        let n = env.n in
        let ring = ring_create ~depth:(delay + 1) ~n in
        {
          craft_flat =
            (fun ~rng:_ ~round:_ ~states ~faulty ~out ->
              ring_push ring states n;
              let old = ring_nth ring ~delay in
              for fi = 0 to Array.length faulty - 1 do
                out.(fi * n) <- old.(faulty.(fi))
              done;
              true);
        });
  }

let replay_correct ~delay () =
  if delay < 0 then invalid_arg "Adversary.replay_correct: negative delay";
  {
    name = Printf.sprintf "replay-correct(%d)" delay;
    benign = false;
    fresh_flat =
      (fun env ->
        let n = env.n in
        let ring = ring_create ~depth:(delay + 1) ~n in
        let correct = Array.make n 0 in
        {
          craft_flat =
            (fun ~rng:_ ~round:_ ~states ~faulty ~out ->
              ring_push ring states n;
              let old = ring_nth ring ~delay in
              let nc = fill_correct correct ~n ~faulty in
              for fi = 0 to Array.length faulty - 1 do
                let src = if nc = 0 then faulty.(fi) else correct.(fi mod nc) in
                out.(fi * n) <- old.(src)
              done;
              true);
        });
  }

let flip_flop () =
  {
    name = "flip-flop";
    benign = false;
    fresh_flat =
      (fun env ->
        let n = env.n in
        let pair = ref None in
        {
          craft_flat =
            (fun ~rng ~round ~states:_ ~faulty ~out ->
              let s0, s1 =
                match !pair with
                | Some p -> p
                | None ->
                  let p = (env.random_code rng, env.random_code rng) in
                  pair := Some p;
                  p
              in
              for fi = 0 to Array.length faulty - 1 do
                let base = fi * n in
                for r = 0 to n - 1 do
                  out.(base + r) <- (if (round + r) mod 2 = 0 then s0 else s1)
                done
              done;
              false);
        });
  }

(* Number of distinct values among the first [len] slots of a scratch
   row, without allocating: quadratic, but [len] is at most the node
   count. *)
let distinct_prefix (a : int array) len =
  let d = ref 0 in
  for i = 0 to len - 1 do
    if not (mem_prefix a i a.(i)) then incr d
  done;
  !d

let greedy_confusion ~pool () =
  if pool < 0 then
    invalid_arg
      (Printf.sprintf "Adversary.greedy_confusion: negative pool %d" pool);
  {
    name = Printf.sprintf "greedy-confusion(%d)" pool;
    benign = false;
    fresh_flat =
      (fun env ->
        let n = env.n in
        (* The run's probe kernel, never the engine's own: the probes
           must not disturb its scratch. [recv] is loaded once per craft
           (which also resets whatever an earlier phase left in the
           kernel) and every candidate moves one slot, announced
           through [assign], which a kernel with incremental views (the
           boost tower's) makes cheap; a probe asks only for the
           recipient's next output. *)
        let kernel = env.probe_kernel () in
        let recv = Array.make n 0 in
        let correct = Array.make n 0 in
        let cands = Array.make (n + pool) 0 in
        let baseline = Array.make n 0 in
        (* The first [left] entries: indices into [correct] of the
           recipients no candidate has yet given a new output. *)
        let undecided = Array.make n 0 in
        let probe_rng = Stdx.Rng.create 0 in
        (* Probe number [k] of the round gets the [k]-th split, into one
           reused buffer; the transition runs on [recv] as it stands. *)
        let probe ~rng ~k ~self =
          Stdx.Rng.split_nth rng k probe_rng;
          kernel.Algo.Spec.step_output ~self ~rng:probe_rng recv
        in
        let assign u code =
          if recv.(u) <> code then begin
            recv.(u) <- code;
            kernel.Algo.Spec.set u code
          end
        in
        {
          craft_flat =
            (fun ~rng ~round:_ ~states ~faulty ~out ->
              let nc = fill_correct correct ~n ~faulty in
              let ncand = nc + pool in
              (* Candidates: correct nodes' codes, then [pool] draws. *)
              for i = 0 to nc - 1 do
                cands.(i) <- states.(correct.(i))
              done;
              for i = nc to ncand - 1 do
                cands.(i) <- env.random_code rng
              done;
              for v = 0 to n - 1 do
                recv.(v) <- states.(v)
              done;
              kernel.Algo.Spec.load recv;
              for i = 0 to nc - 1 do
                baseline.(i) <- probe ~rng ~k:i ~self:correct.(i)
              done;
              (* A baseline holding all [c] outputs leaves nothing new
                 to find, so every recipient keeps candidate 0. *)
              let saturated = distinct_prefix baseline nc >= env.c in
              (* Probe (fi, j, ci) is split nc + (fi * nc + j) * ncand + ci,
                 as in the documented fi / recipient / candidate scan. Here
                 candidates run outside recipients, each costing one
                 [set], and a recipient stops at its first candidate with
                 an output new to the baseline: the first top scorer, which
                 the scan's strict [>] keeps. Only the sender's slot of
                 [recv] moves, and it is restored after each sender, so
                 other faulty slots keep their true codes: "everyone else
                 tells the truth". *)
              for fi = 0 to Array.length faulty - 1 do
                let sender = faulty.(fi) and base = fi * n in
                for r = 0 to n - 1 do
                  out.(base + r) <-
                    (if mem_int faulty r then states.(sender) else cands.(0))
                done;
                let left = ref (if saturated then 0 else nc) in
                for j = 0 to !left - 1 do
                  undecided.(j) <- j
                done;
                let ci = ref 0 in
                while !left > 0 && !ci < ncand do
                  assign sender cands.(!ci);
                  let kept = ref 0 in
                  for p = 0 to !left - 1 do
                    let j = undecided.(p) in
                    let k = nc + (((fi * nc) + j) * ncand) + !ci in
                    if mem_prefix baseline nc (probe ~rng ~k ~self:correct.(j))
                    then begin
                      undecided.(!kept) <- j;
                      incr kept
                    end
                    else out.(base + correct.(j)) <- cands.(!ci)
                  done;
                  left := !kept;
                  incr ci
                done;
                assign sender states.(sender)
              done;
              Stdx.Rng.advance rng (nc + (Array.length faulty * nc * ncand));
              false);
        });
  }

let standard_suite () =
  [
    benign ();
    stuck ();
    random_consistent ();
    random_equivocate ();
    mimic ~offset:1 ();
    split_brain ();
    stale ~delay:3 ();
    replay_correct ~delay:2 ();
    flip_flop ();
  ]

let hostile_suite () = List.filter (fun a -> not a.benign) (standard_suite ())

let registry () = standard_suite () @ [ greedy_confusion ~pool:2 () ]
