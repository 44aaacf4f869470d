type 's run = {
  spec : 's Algo.Spec.t;
  faulty : int array;
  seed : int;
  rounds : int;
  states : 's array array;
  outputs : int array array;
  messages_per_round : int;
  bits_per_round : int;
}

(* Thin wrapper over the streaming engine: materialise the full trace via
   the engine's [trace] hook. Lemma probes, figures and the model
   checker need the whole history; sweeps should use [Engine.run] (or
   [Harness.run]) directly and early-exit instead. *)
let run ?init ~(spec : 's Algo.Spec.t) ~(adversary : 's Adversary.t) ~faulty
    ~rounds ~seed () =
  let states = Array.make (rounds + 1) [||] in
  let outputs = Array.make (rounds + 1) [||] in
  let trace ~round ~states:s ~outputs:o =
    states.(round) <- s;
    outputs.(round) <- o
  in
  let outcome =
    Engine.run ?init ~trace ~mode:Engine.Full_horizon ~min_suffix:1 ~spec
      ~schedule:(Schedule.static ~adversary ~faulty ~rounds)
      ~seed ()
  in
  {
    spec;
    faulty = Array.of_list (List.hd outcome.Engine.phases).Engine.faulty;
    seed;
    rounds;
    states;
    outputs;
    messages_per_round = outcome.Engine.messages_per_round;
    bits_per_round = outcome.Engine.bits_per_round;
  }

let correct_ids run =
  let n = run.spec.Algo.Spec.n in
  List.filter
    (fun v -> not (Array.exists (fun u -> u = v) run.faulty))
    (List.init n (fun i -> i))

let output_row run ~round = run.outputs.(round)
