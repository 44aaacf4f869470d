(* Boxed reference simulator: the slow, obviously-correct twin of the
   flat engine, kept in the test suite only.

   It holds a boxed crafter for every adversary strategy — ['s] state
   vectors in, an ['s] message matrix out — and a minimal trajectory
   loop over a {!Sim.Schedule.t} that keeps every round's boxed states.
   The engine ([Sim.Engine]) runs on packed codes with code-space
   kernels; the differentials in [test_flat.ml] demand that its decoded
   rows equal this module's, round for round.

   The loop draws from the same RNG streams in the same order as the
   engine: a master stream split into init, adversary, one per node and
   corruption, in that order. *)

type 's crafter = {
  craft :
    spec:'s Algo.Spec.t ->
    rng:Stdx.Rng.t ->
    round:int ->
    states:'s array ->
    faulty:int array ->
    's array array;
      (** [msgs.(fi).(r)] = the message the [fi]-th faulty node sends to
          recipient [r] this round *)
}

let is_faulty faulty v = Array.exists (fun u -> u = v) faulty

let correct_ids n faulty =
  Array.of_list
    (List.filter (fun v -> not (is_faulty faulty v)) (List.init n (fun i -> i)))

(* Build the message matrix by calling [msg ~fi ~sender ~recipient]. *)
let matrix ~n ~faulty msg =
  Array.mapi (fun fi sender -> Array.init n (fun r -> msg ~fi ~sender ~recipient:r)) faulty

(* --- the boxed crafters ---------------------------------------------- *)

let benign () =
  {
    craft =
      (fun ~spec:_ ~rng:_ ~round:_ ~states ~faulty ->
        matrix ~n:(Array.length states) ~faulty
          (fun ~fi:_ ~sender ~recipient:_ -> states.(sender)));
  }

let stuck () =
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
  }

let random_consistent () =
  {
    craft =
      (fun ~spec ~rng ~round:_ ~states ~faulty ->
        let per_round = Array.map (fun _ -> spec.Algo.Spec.random_state rng) faulty in
        matrix ~n:(Array.length states) ~faulty
          (fun ~fi ~sender:_ ~recipient:_ -> per_round.(fi)));
  }

let random_equivocate () =
  {
    craft =
      (fun ~spec ~rng ~round:_ ~states ~faulty ->
        matrix ~n:(Array.length states) ~faulty
          (fun ~fi:_ ~sender:_ ~recipient:_ -> spec.Algo.Spec.random_state rng));
  }

let mimic ~offset () =
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
  }

let split_brain () =
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
  let history = ref [] in
  {
    craft =
      (fun ~spec:_ ~rng:_ ~round:_ ~states ~faulty ->
        history_push history ~keep:(delay + 1) states;
        let old = history_nth history ~delay ~fallback:states in
        matrix ~n:(Array.length states) ~faulty
          (fun ~fi:_ ~sender ~recipient:_ -> old.(sender)));
  }

let replay_correct ~delay () =
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
  }

let flip_flop () =
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
  }

(* Spread of a multiset of outputs: number of distinct values. *)
let distinct_count compare values =
  let sorted = List.sort_uniq compare values in
  List.length sorted

let greedy_confusion ~pool () =
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
  }

(* The greedy strategy's flat kernel in its literal scan order: fi
   outer, recipient, then candidate, every probe made on one sequential
   split. [Sim.Adversary.greedy_confusion] scores candidates outside
   recipients and skips probes; it must write the same rows and leave
   the rng where this scan does. *)
let greedy_scan ~pool (env : Sim.Adversary.flat_env) =
  let n = env.Sim.Adversary.n in
  let kernel = env.Sim.Adversary.probe_kernel () in
  let recv = Array.make n 0 in
  let probe_rng = Stdx.Rng.create 0 in
  let probe ~self ~rng =
    Stdx.Rng.split_into rng probe_rng;
    kernel.Algo.Spec.step_output ~self ~rng:probe_rng recv
  in
  let assign u code =
    if recv.(u) <> code then begin
      recv.(u) <- code;
      kernel.Algo.Spec.set u code
    end
  in
  {
    Sim.Adversary.craft_flat =
      (fun ~rng ~round:_ ~states ~faulty ~out ->
        let correct = correct_ids n faulty in
        let cands =
          Array.append
            (Array.map (fun v -> states.(v)) correct)
            (Array.init pool (fun _ -> env.Sim.Adversary.random_code rng))
        in
        Array.blit states 0 recv 0 n;
        kernel.Algo.Spec.load recv;
        let baseline = Array.map (fun v -> probe ~self:v ~rng) correct in
        let d = distinct_count Int.compare (Array.to_list baseline) in
        Array.iteri
          (fun fi sender ->
            for r = 0 to n - 1 do
              if is_faulty faulty r then out.((fi * n) + r) <- states.(sender)
              else begin
                let best = ref 0 and best_score = ref min_int in
                Array.iteri
                  (fun ci cand ->
                    assign sender cand;
                    let o = probe ~self:r ~rng in
                    let score =
                      if Array.exists (( = ) o) baseline then d
                      else d + 1
                    in
                    if score > !best_score then begin
                      best_score := score;
                      best := ci
                    end)
                  cands;
                assign sender states.(sender);
                out.((fi * n) + r) <- cands.(!best)
              end
            done)
          faulty;
        false);
  }

(* A fresh boxed crafter for the strategy [adversary] names. Fails
   loudly on a name with no boxed twin, so a strategy added to
   [Sim.Adversary] without one cannot slip past the differentials. *)
let fresh (adversary : 's Sim.Adversary.t) : 's crafter =
  let name = Sim.Adversary.name adversary in
  let int_param fmt = Scanf.sscanf_opt name fmt Fun.id in
  match name with
  | "benign" -> benign ()
  | "stuck" -> stuck ()
  | "random-consistent" -> random_consistent ()
  | "random-equivocate" -> random_equivocate ()
  | "split-brain" -> split_brain ()
  | "flip-flop" -> flip_flop ()
  | _ -> (
    match
      ( int_param "mimic(+%d)%!",
        int_param "stale(%d)%!",
        int_param "replay-correct(%d)%!",
        int_param "greedy-confusion(%d)%!" )
    with
    | Some offset, _, _, _ -> mimic ~offset ()
    | _, Some delay, _, _ -> stale ~delay ()
    | _, _, Some delay, _ -> replay_correct ~delay ()
    | _, _, _, Some pool -> greedy_confusion ~pool ()
    | None, None, None, None ->
      failwith ("Reference.fresh: no boxed crafter for adversary " ^ name))

(* --- the trajectory loop --------------------------------------------- *)

type 's trajectory = {
  states : 's array array;
      (** [states.(t)]: the row observed at round [t], after that
          round's corruption events; [0 .. total_rounds] *)
  outputs : int array array;  (** [outputs.(t)]: the output row of [states.(t)] *)
  corruptions : (int * int list) list;
      (** [(round, sorted victims)] of every event, in schedule order *)
}

(* The whole horizon, boxed: one crafter per entered phase, faulty slots
   overridden per recipient, every node stepping on its own stream. *)
let run ?init ~(spec : 's Algo.Spec.t) ~(schedule : 's Sim.Schedule.t) ~seed
    () =
  let n = spec.Algo.Spec.n in
  let schedule = Sim.Schedule.validate ~spec schedule in
  let phases = Array.of_list schedule.Sim.Schedule.phases in
  let total = Sim.Schedule.total_rounds schedule in
  let master = Stdx.Rng.create seed in
  let init_rng = Stdx.Rng.split master in
  let adv_rng = Stdx.Rng.split master in
  let node_rng = Array.init n (fun _ -> Stdx.Rng.split master) in
  let corrupt_rng = Stdx.Rng.split master in
  let current =
    ref
      (match init with
      | Some states -> Array.copy states
      | None -> Array.init n (fun _ -> spec.Algo.Spec.random_state init_rng))
  in
  let phase = ref (-1) in
  let next_start = ref 0 in
  let faulty = ref [||] in
  let crafter = ref (benign ()) in
  let pending = ref schedule.Sim.Schedule.events in
  let corruptions = ref [] in
  let states = Array.make (total + 1) [||] in
  let outputs = Array.make (total + 1) [||] in
  for t = 0 to total do
    (* Enter every phase starting at or before [t]: zero-duration phases
       are entered and left in the same round. *)
    while !phase + 1 < Array.length phases && !next_start <= t do
      incr phase;
      let p = phases.(!phase) in
      next_start := !next_start + p.Sim.Schedule.duration;
      faulty := Array.of_list p.Sim.Schedule.faulty;
      crafter := fresh p.Sim.Schedule.adversary
    done;
    let rec strike () =
      match !pending with
      | { Sim.Schedule.round; victims } :: rest when round = t ->
        pending := rest;
        let correct = correct_ids n !faulty in
        let k = min victims (Array.length correct) in
        let hit =
          Stdx.Rng.sample_without_replacement corrupt_rng k
            (Array.length correct)
        in
        let next = Array.copy !current in
        List.iter
          (fun i ->
            next.(correct.(i)) <- spec.Algo.Spec.random_state corrupt_rng)
          hit;
        current := next;
        corruptions :=
          (t, List.sort Int.compare (List.map (fun i -> correct.(i)) hit))
          :: !corruptions;
        strike ()
      | _ -> ()
    in
    strike ();
    let cur = !current in
    states.(t) <- Array.copy cur;
    outputs.(t) <- Array.mapi (fun v s -> spec.Algo.Spec.output ~self:v s) cur;
    if t < total then begin
      let fa = !faulty in
      let crafted =
        if Array.length fa = 0 then [||]
        else !crafter.craft ~spec ~rng:adv_rng ~round:t ~states:cur ~faulty:fa
      in
      current :=
        Array.init n (fun v ->
            let received = Array.copy cur in
            Array.iteri (fun fi sender -> received.(sender) <- crafted.(fi).(v)) fa;
            spec.Algo.Spec.transition ~self:v ~rng:node_rng.(v) received)
    end
  done;
  { states; outputs; corruptions = List.rev !corruptions }
