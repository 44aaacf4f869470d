type 's responder = {
  resp_name : string;
  respond :
    spec:'s Pull_spec.t ->
    rng:Stdx.Rng.t ->
    round:int ->
    states:'s array ->
    target:int ->
    puller:int ->
    's;
}

let truthful_responder () =
  {
    resp_name = "truthful";
    respond =
      (fun ~spec:_ ~rng:_ ~round:_ ~states ~target ~puller:_ -> states.(target));
  }

let random_responder () =
  {
    resp_name = "random";
    respond =
      (fun ~spec ~rng ~round:_ ~states:_ ~target:_ ~puller:_ ->
        spec.Pull_spec.random_state rng);
  }

let stuck_responder () =
  let frozen = Hashtbl.create 8 in
  {
    resp_name = "stuck";
    respond =
      (fun ~spec:_ ~rng:_ ~round:_ ~states ~target ~puller:_ ->
        match Hashtbl.find_opt frozen target with
        | Some s -> s
        | None ->
          Hashtbl.replace frozen target states.(target);
          states.(target));
  }

let mirror_responder () =
  {
    resp_name = "mirror";
    respond =
      (fun ~spec:_ ~rng:_ ~round:_ ~states ~target:_ ~puller -> states.(puller));
  }

let standard_responders () =
  [
    truthful_responder ();
    random_responder ();
    stuck_responder ();
    mirror_responder ();
  ]

type 's run = {
  spec : 's Pull_spec.t;
  faulty : int array;
  seed : int;
  rounds : int;
  outputs : int array array;
  states : 's array array;
  max_pulls : int;
  total_pulls : int;
  bits_pulled_per_round : float;
}

(* Shared stepping core. [observe ~round ~states ~outputs] is called for
   every simulated round (including round 0) and decides whether to keep
   going; the RNG stream layout is identical for every caller so the
   streaming and full-trace entry points replay the same execution. *)
let simulate ?init ~(spec : 's Pull_spec.t) ~responder ~faulty ~rounds ~seed
    ~observe () =
  let n = spec.Pull_spec.n in
  let faulty =
    Sim.Schedule.validate_faulty ~who:"Pull_sim.run" ~n ~f:spec.Pull_spec.f
      faulty
  in
  let is_faulty = Array.make n false in
  Array.iter (fun v -> is_faulty.(v) <- true) faulty;
  let master = Stdx.Rng.create seed in
  let init_rng = Stdx.Rng.split master in
  let adv_rng = Stdx.Rng.split master in
  let node_rng = Array.init n (fun _ -> Stdx.Rng.split master) in
  let initial =
    match init with
    | Some s ->
      if Array.length s <> n then invalid_arg "Pull_sim.run: init length";
      Array.copy s
    | None -> Array.init n (fun _ -> spec.Pull_spec.random_state init_rng)
  in
  let max_pulls = ref 0 in
  let total_pulls = ref 0 in
  let current = ref initial in
  let t = ref 0 in
  let stop = ref false in
  while not !stop do
    let cur = !current in
    let outs = Array.mapi (fun v s -> spec.Pull_spec.output ~self:v s) cur in
    let keep_going = observe ~round:!t ~states:cur ~outputs:outs in
    if (not keep_going) || !t >= rounds then stop := true
    else begin
      let next =
        Array.init n (fun v ->
            if is_faulty.(v) then cur.(v)
            else begin
              let targets =
                spec.Pull_spec.pulls ~self:v ~rng:node_rng.(v) cur.(v)
              in
              let pulls = Array.length targets in
              total_pulls := !total_pulls + pulls;
              if pulls > !max_pulls then max_pulls := pulls;
              let responses =
                Array.map
                  (fun u ->
                    let reply =
                      if is_faulty.(u) then
                        responder.respond ~spec ~rng:adv_rng ~round:!t
                          ~states:cur ~target:u ~puller:v
                      else cur.(u)
                    in
                    (u, reply))
                  targets
              in
              spec.Pull_spec.transition ~self:v ~rng:node_rng.(v) ~own:cur.(v)
                ~responses
            end)
      in
      current := next;
      incr t
    end
  done;
  (faulty, !t, !current, !max_pulls, !total_pulls)

let bits_pulled_per_round ~(spec : 's Pull_spec.t) ~faulty ~rounds ~total_pulls
    =
  let correct_count = spec.Pull_spec.n - Array.length faulty in
  if rounds = 0 || correct_count = 0 then 0.0
  else
    float_of_int (total_pulls * spec.Pull_spec.state_bits)
    /. float_of_int (rounds * correct_count)

let run ?init ~(spec : 's Pull_spec.t) ~responder ~faulty ~rounds ~seed () =
  let states = Array.make (rounds + 1) [||] in
  let outputs = Array.make (rounds + 1) [||] in
  let observe ~round ~states:s ~outputs:o =
    states.(round) <- s;
    outputs.(round) <- o;
    true
  in
  let faulty, _, _, max_pulls, total_pulls =
    simulate ?init ~spec ~responder ~faulty ~rounds ~seed ~observe ()
  in
  {
    spec;
    faulty;
    seed;
    rounds;
    outputs;
    states;
    max_pulls;
    total_pulls;
    bits_pulled_per_round =
      bits_pulled_per_round ~spec ~faulty ~rounds ~total_pulls;
  }

type 's stream = {
  verdict : Sim.Online.verdict;
  rounds_simulated : int;
  early_exit : bool;
  final_states : 's array;
  stream_max_pulls : int;
  stream_total_pulls : int;
}

let run_stream ?init ?(early_exit = true) ~min_suffix ~(spec : 's Pull_spec.t)
    ~responder ~faulty ~rounds ~seed () =
  let correct =
    let faulty_sorted = List.sort_uniq Int.compare faulty in
    List.filter
      (fun v -> not (List.mem v faulty_sorted))
      (List.init spec.Pull_spec.n (fun i -> i))
  in
  let detector =
    Sim.Online.create ~c:spec.Pull_spec.c ~correct ~min_suffix ()
  in
  let observe ~round ~states:_ ~outputs =
    Sim.Online.observe detector ~round outputs;
    not (early_exit && Sim.Online.stabilised detector)
  in
  let _, rounds_simulated, final_states, max_pulls, total_pulls =
    simulate ?init ~spec ~responder ~faulty ~rounds ~seed ~observe ()
  in
  {
    verdict = Sim.Online.verdict detector;
    rounds_simulated;
    early_exit = rounds_simulated < rounds;
    final_states;
    stream_max_pulls = max_pulls;
    stream_total_pulls = total_pulls;
  }

let correct_ids run =
  List.filter
    (fun v -> not (Array.exists (fun u -> u = v) run.faulty))
    (List.init run.spec.Pull_spec.n (fun i -> i))
