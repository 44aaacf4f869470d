type 's crafter = {
  craft :
    spec:'s Algo.Spec.t ->
    rng:Stdx.Rng.t ->
    round:int ->
    states:'s array ->
    faulty:int array ->
    's array array;
}

type flat_env = {
  n : int;
  random_code : Stdx.Rng.t -> int;
  output_code : self:int -> int -> int;
  fresh_kernel : unit -> Algo.Spec.kernel;
}

type flat_crafter = {
  craft_flat :
    rng:Stdx.Rng.t ->
    round:int ->
    states:Statebuf.t ->
    faulty:int array ->
    out:int array ->
    unit;
}

type 's t = {
  name : string;
  benign : bool;
  fresh : unit -> 's crafter;
  fresh_flat : flat_env -> flat_crafter;
}

let name t = t.name

let is_faulty faulty v = Array.exists (fun u -> u = v) faulty

let correct_ids n faulty =
  Array.of_list
    (List.filter (fun v -> not (is_faulty faulty v)) (List.init n (fun i -> i)))

(* Build the message matrix by calling [msg ~fi ~sender ~recipient]. *)
let matrix ~n ~faulty msg =
  Array.mapi (fun fi sender -> Array.init n (fun r -> msg ~fi ~sender ~recipient:r)) faulty

(* --- flat-kernel plumbing ------------------------------------------- *)

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

let fill_row (out : int array) ~base ~n code =
  for r = 0 to n - 1 do
    out.(base + r) <- code
  done

(* Correct ids in ascending order into [dst]; returns the count. Matches
   [correct_ids] without allocating. *)
let fill_correct (dst : int array) ~n ~faulty =
  let k = ref 0 in
  for v = 0 to n - 1 do
    if not (mem_int faulty v) then begin
      dst.(!k) <- v;
      incr k
    end
  done;
  !k

(* Ring of the last [depth] packed state rows, newest at [head]: the
   packed-code mirror of the boxed crafters' state-vector history lists,
   preallocated once per run. *)
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
  Statebuf.blit_to states ring.rows.(ring.head) n;
  ring.pushes <- ring.pushes + 1

(* The row [delay] pushes back, or the newest row (the just-pushed
   current states) while history is still filling — exactly the boxed
   [history_nth] fallback. *)
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
    fresh =
      (fun () ->
        {
          craft =
            (fun ~spec:_ ~rng:_ ~round:_ ~states ~faulty ->
              matrix ~n:(Array.length states) ~faulty
                (fun ~fi:_ ~sender ~recipient:_ -> states.(sender)));
        });
    fresh_flat =
      (fun env ->
        let n = env.n in
        {
          craft_flat =
            (fun ~rng:_ ~round:_ ~states ~faulty ~out ->
              for fi = 0 to Array.length faulty - 1 do
                fill_row out ~base:(fi * n) ~n (Statebuf.get states faulty.(fi))
              done);
        });
  }

let stuck () =
  {
    name = "stuck";
    benign = false;
    fresh =
      (fun () ->
        let frozen = ref None in
        {
          craft =
            (fun ~spec:_ ~rng:_ ~round:_ ~states ~faulty ->
              let frozen_states =
                match !frozen with
                | Some fs -> fs
                | None ->
                  let fs = Array.map (fun v -> states.(v)) faulty in
                  frozen := Some fs;
                  fs
              in
              matrix ~n:(Array.length states) ~faulty
                (fun ~fi ~sender:_ ~recipient:_ -> frozen_states.(fi)));
        });
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
                  frozen.(fi) <- Statebuf.get states faulty.(fi)
                done;
                have := true
              end;
              for fi = 0 to nf - 1 do
                fill_row out ~base:(fi * n) ~n frozen.(fi)
              done);
        });
  }

let random_consistent () =
  {
    name = "random-consistent";
    benign = false;
    fresh =
      (fun () ->
        {
          craft =
            (fun ~spec ~rng ~round:_ ~states ~faulty ->
              let per_round = Array.map (fun _ -> spec.Algo.Spec.random_state rng) faulty in
              matrix ~n:(Array.length states) ~faulty
                (fun ~fi ~sender:_ ~recipient:_ -> per_round.(fi)));
        });
    fresh_flat =
      (fun env ->
        let n = env.n in
        {
          craft_flat =
            (fun ~rng ~round:_ ~states:_ ~faulty ~out ->
              (* One draw per faulty node in fi order — the boxed
                 per-round Array.map draw order. *)
              for fi = 0 to Array.length faulty - 1 do
                fill_row out ~base:(fi * n) ~n (env.random_code rng)
              done);
        });
  }

let random_equivocate () =
  {
    name = "random-equivocate";
    benign = false;
    fresh =
      (fun () ->
        {
          craft =
            (fun ~spec ~rng ~round:_ ~states ~faulty ->
              matrix ~n:(Array.length states) ~faulty
                (fun ~fi:_ ~sender:_ ~recipient:_ -> spec.Algo.Spec.random_state rng));
        });
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
              done);
        });
  }

let mimic ~offset () =
  {
    name = Printf.sprintf "mimic(+%d)" offset;
    benign = false;
    fresh =
      (fun () ->
        {
          craft =
            (fun ~spec:_ ~rng:_ ~round ~states ~faulty ->
              let correct = correct_ids (Array.length states) faulty in
              matrix ~n:(Array.length states) ~faulty
                (fun ~fi ~sender ~recipient:_ ->
                  (* With no correct node to impersonate (n = f), fall
                     back to replaying the faulty node's own state. *)
                  let victim =
                    if Array.length correct = 0 then sender
                    else correct.((fi + offset + round) mod Array.length correct)
                  in
                  states.(victim)));
        });
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
                fill_row out ~base:(fi * n) ~n (Statebuf.get states victim)
              done);
        });
  }

let split_brain () =
  {
    name = "split-brain";
    benign = false;
    fresh =
      (fun () ->
        {
          craft =
            (fun ~spec:_ ~rng:_ ~round:_ ~states ~faulty ->
              let correct = correct_ids (Array.length states) faulty in
              matrix ~n:(Array.length states) ~faulty
                (fun ~fi:_ ~sender ~recipient ->
                  (* No correct halves to play against each other when
                     n = f: replay the faulty node's own state. *)
                  if Array.length correct = 0 then states.(sender)
                  else begin
                    let a = correct.(0) in
                    let b = correct.(Array.length correct - 1) in
                    if recipient mod 2 = 0 then states.(a) else states.(b)
                  end));
        });
    fresh_flat =
      (fun env ->
        let n = env.n in
        let correct = Array.make n 0 in
        {
          craft_flat =
            (fun ~rng:_ ~round:_ ~states ~faulty ~out ->
              let nc = fill_correct correct ~n ~faulty in
              for fi = 0 to Array.length faulty - 1 do
                let base = fi * n in
                if nc = 0 then
                  fill_row out ~base ~n (Statebuf.get states faulty.(fi))
                else begin
                  let a = Statebuf.get states correct.(0) in
                  let b = Statebuf.get states correct.(nc - 1) in
                  for r = 0 to n - 1 do
                    out.(base + r) <- (if r mod 2 = 0 then a else b)
                  done
                end
              done);
        });
  }

(* Bounded history of past state vectors, newest first. *)
let history_nth history ~delay ~fallback =
  let rec nth i = function
    | [] -> fallback
    | h :: t -> if i = 0 then h else nth (i - 1) t
  in
  nth delay !history

let history_push history ~keep states =
  let rec take i = function
    | [] -> []
    | h :: t -> if i = 0 then [] else h :: take (i - 1) t
  in
  history := take keep (Array.copy states :: !history)

let stale ~delay () =
  if delay < 0 then invalid_arg "Adversary.stale: negative delay";
  {
    name = Printf.sprintf "stale(%d)" delay;
    benign = false;
    fresh =
      (fun () ->
        let history = ref [] in
        {
          craft =
            (fun ~spec:_ ~rng:_ ~round:_ ~states ~faulty ->
              history_push history ~keep:(delay + 1) states;
              let old = history_nth history ~delay ~fallback:states in
              matrix ~n:(Array.length states) ~faulty
                (fun ~fi:_ ~sender ~recipient:_ -> old.(sender)));
        });
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
                fill_row out ~base:(fi * n) ~n old.(faulty.(fi))
              done);
        });
  }

let replay_correct ~delay () =
  if delay < 0 then invalid_arg "Adversary.replay_correct: negative delay";
  {
    name = Printf.sprintf "replay-correct(%d)" delay;
    benign = false;
    fresh =
      (fun () ->
        let history = ref [] in
        {
          craft =
            (fun ~spec:_ ~rng:_ ~round:_ ~states ~faulty ->
              history_push history ~keep:(delay + 1) states;
              let old = history_nth history ~delay ~fallback:states in
              let correct = correct_ids (Array.length states) faulty in
              matrix ~n:(Array.length states) ~faulty
                (fun ~fi ~sender ~recipient:_ ->
                  (* n = f: no correct node to replay, use own old state. *)
                  if Array.length correct = 0 then old.(sender)
                  else old.(correct.(fi mod Array.length correct))));
        });
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
                fill_row out ~base:(fi * n) ~n old.(src)
              done);
        });
  }

let flip_flop () =
  {
    name = "flip-flop";
    benign = false;
    fresh =
      (fun () ->
        let pair = ref None in
        {
          craft =
            (fun ~spec ~rng ~round ~states ~faulty ->
              let s0, s1 =
                match !pair with
                | Some p -> p
                | None ->
                  let p = (spec.Algo.Spec.random_state rng, spec.Algo.Spec.random_state rng) in
                  pair := Some p;
                  p
              in
              matrix ~n:(Array.length states) ~faulty
                (fun ~fi:_ ~sender:_ ~recipient ->
                  let phase = (round + recipient) mod 2 in
                  if phase = 0 then s0 else s1));
        });
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
              done);
        });
  }

(* Spread of a multiset of outputs: number of distinct values. *)
let distinct_count compare values =
  let sorted = List.sort_uniq compare values in
  List.length sorted

(* [distinct_count] over the first [len] slots of a scratch row, without
   allocating: quadratic, but [len] is at most the node count. *)
let distinct_prefix (a : int array) len =
  let d = ref 0 in
  for i = 0 to len - 1 do
    if not (mem_prefix a i a.(i)) then incr d
  done;
  !d

let greedy_confusion ~pool () =
  {
    name = Printf.sprintf "greedy-confusion(%d)" pool;
    benign = false;
    fresh =
      (fun () ->
        {
          craft =
            (fun ~spec ~rng ~round:_ ~states ~faulty ->
              let n = Array.length states in
              let correct = correct_ids n faulty in
              let candidates =
                Array.append
                  (Array.map (fun v -> states.(v)) correct)
                  (Array.init pool (fun _ -> spec.Algo.Spec.random_state rng))
              in
              (* For each recipient, simulate its transition assuming every
                 other sender is truthful and score each candidate by the
                 spread (distinct values) of the recipient's next output
                 together with the correct nodes' truthful next outputs. *)
              let truthful_next r =
                let received = Array.copy states in
                let probe_rng = Stdx.Rng.split rng in
                spec.Algo.Spec.transition ~self:r ~rng:probe_rng received
              in
              let baseline_outputs =
                Array.to_list
                  (Array.map
                     (fun r -> spec.Algo.Spec.output ~self:r (truthful_next r))
                     correct)
              in
              matrix ~n ~faulty (fun ~fi:_ ~sender ~recipient ->
                  if is_faulty faulty recipient then states.(sender)
                  else begin
                    let best = ref candidates.(0) in
                    let best_score = ref min_int in
                    Array.iter
                      (fun cand ->
                        let received = Array.copy states in
                        received.(sender) <- cand;
                        let probe_rng = Stdx.Rng.split rng in
                        let next =
                          spec.Algo.Spec.transition ~self:recipient ~rng:probe_rng received
                        in
                        let o = spec.Algo.Spec.output ~self:recipient next in
                        let score =
                          distinct_count Int.compare (o :: baseline_outputs)
                        in
                        if score > !best_score then begin
                          best_score := score;
                          best := cand
                        end)
                      candidates;
                    !best
                  end));
        });
    fresh_flat =
      (fun env ->
        let n = env.n in
        (* A private kernel: the probes must not disturb the engine's
           own kernel cache. Consecutive probes differ in about one
           slot of [recv], which a kernel with an incremental
           received-vector cache (the boost tower's) makes cheap. *)
        let kernel = env.fresh_kernel () in
        let cur = Array.make n 0 in
        let recv = Array.make n 0 in
        let correct = Array.make n 0 in
        let cands = Array.make (n + pool) 0 in
        let baseline = Array.make n 0 in
        (* One split per probe, like the boxed [Stdx.Rng.split] calls;
           the recipient's transition runs on [recv] as it stands. *)
        let probe ~self ~rng =
          env.output_code ~self
            (kernel.Algo.Spec.step ~self ~rng:(Stdx.Rng.split rng) recv)
        in
        {
          craft_flat =
            (fun ~rng ~round:_ ~states ~faulty ~out ->
              Statebuf.blit_to states cur n;
              let nc = fill_correct correct ~n ~faulty in
              let ncand = nc + pool in
              (* Candidates: correct nodes' codes, then [pool] draws. *)
              for i = 0 to nc - 1 do
                cands.(i) <- cur.(correct.(i))
              done;
              for i = nc to ncand - 1 do
                cands.(i) <- env.random_code rng
              done;
              Array.blit cur 0 recv 0 n;
              for i = 0 to nc - 1 do
                baseline.(i) <- probe ~self:correct.(i) ~rng
              done;
              let d = distinct_prefix baseline nc in
              (* Draws in matrix order: fi outer, recipient inner. Only
                 the sender's slot of [recv] moves, and it is restored
                 after each recipient, so other faulty slots keep their
                 true codes — the boxed "everyone else is truthful". *)
              for fi = 0 to Array.length faulty - 1 do
                let sender = faulty.(fi) in
                let base = fi * n in
                for r = 0 to n - 1 do
                  if mem_int faulty r then out.(base + r) <- cur.(sender)
                  else begin
                    (* Score = distinct_count (o :: baseline); strict
                       [>] keeps the first best candidate. *)
                    let best = ref 0 in
                    let best_score = ref min_int in
                    for ci = 0 to ncand - 1 do
                      recv.(sender) <- cands.(ci);
                      let o = probe ~self:r ~rng in
                      let score =
                        if mem_prefix baseline nc o then d else d + 1
                      in
                      if score > !best_score then begin
                        best_score := score;
                        best := ci
                      end
                    done;
                    recv.(sender) <- cur.(sender);
                    out.(base + r) <- cands.(!best)
                  end
                done
              done);
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
