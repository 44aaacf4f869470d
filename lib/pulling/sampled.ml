type 's state = { tower : 's Counting.Boost.state; prev_r : int }

type 's t = {
  spec : 's state Algo.Spec.t;
  pulls_per_round : int;
  pulls : self:int -> rng:Stdx.Rng.t -> 's state -> int array;
  pull_count : self:int -> 's state -> int;
}

type tally = {
  max_pulls : int;
  total_pulls : int;
  bits_pulled_per_round : float;
}

type king_mode = Predicted | All_kings

let construct_gen ~king_mode ~links_seed ~(inner : 's Algo.Spec.t) ~k ~big_f
    ~big_c ~samples =
  if samples < 1 then invalid_arg "Sampled.construct: samples < 1";
  let tower = Counting.Boost.construct ~inner ~k ~big_f ~big_c in
  let tower_spec = tower.Counting.Boost.spec in
  let { Counting.Boost.n_inner; big_n; tau; _ } = tower.Counting.Boost.params in
  let view_params = tower.Counting.Boost.view_params in
  let kings = big_f + 2 in
  let block_peers self =
    let base = self / n_inner * n_inner in
    Array.of_list (List.filter (( <> ) self) (List.init n_inner (( + ) base)))
  in
  (* [k] block samples of size M, then M network-wide samples. *)
  let draw_samples rng =
    let block_samples =
      Array.init (k * samples) (fun idx ->
          (idx / samples * n_inner) + Stdx.Rng.int rng n_inner)
    in
    Array.append block_samples
      (Array.init samples (fun _ -> Stdx.Rng.int rng big_n))
  in
  (* Fixed links for the oblivious variant: one draw per node, reused
     every round (Corollary 5). *)
  let fixed_links =
    match king_mode with
    | Predicted -> [||]
    | All_kings ->
      let link_rng = Stdx.Rng.create links_seed in
      Array.init big_n (fun _ ->
          Array.append (draw_samples link_rng) (Array.init kings Fun.id))
  in
  (* The king a [Predicted] node pulls next: node [(R+1)/3] when the
     round after the last observed [R] is a king round. *)
  let predicted_king (own : 's state) =
    let predicted = (own.prev_r + 1) mod tau in
    if predicted mod 3 = 2 then Some (predicted / 3) else None
  in
  (* Pull targets: block peers, [k] block samples of size M, M
     network-wide samples, then the king(s). Duplicates are allowed
     (sampling with replacement) and each occurrence is paid for. *)
  let pulls ~self ~rng (own : 's state) =
    let peers = block_peers self in
    match king_mode with
    | All_kings -> Array.append peers fixed_links.(self)
    | Predicted ->
      let sampled = draw_samples rng in
      let king =
        match predicted_king own with Some l -> [| l |] | None -> [||]
      in
      Array.concat [ peers; sampled; king ]
  in
  let pulls_per_round =
    (n_inner - 1) + ((k + 1) * samples)
    + (match king_mode with Predicted -> 1 | All_kings -> kings)
  in
  let pull_count ~self:_ own =
    if king_mode = Predicted && predicted_king own = None then
      pulls_per_round - 1
    else pulls_per_round
  in
  (* A pulled read is the puller's view of one slot of the broadcast
     vector: the node draws its targets from its own rng and reads
     [received] at those slots (and its own) only. A faulty target may
     answer every puller differently, as the engine's per-recipient
     crafting does. *)
  let thresholds = Counting.Phase_king.Lemma8 { samples } in
  let transition ~self ~rng (received : 's state array) =
    let own = received.(self) in
    let targets = pulls ~self ~rng own in
    let pulled i = received.(targets.(i)).tower in
    (* The block's message vector: the pulled peers and the node itself. *)
    let block = self / n_inner in
    let block_messages =
      Array.init n_inner (fun j -> received.((block * n_inner) + j).tower.inner)
    in
    let inner' =
      inner.Algo.Spec.transition ~self:(self mod n_inner) ~rng block_messages
    in
    (* Leader vote from the per-block samples. *)
    let peer_count = n_inner - 1 in
    let _, _, r_value =
      Counting.Boost.leader_vote ~k ~ballots:samples (fun block s ->
          let idx = peer_count + (block * samples) + s in
          let u = targets.(idx) in
          Counting.Counter_view.of_value view_params.(u / n_inner)
            (inner.Algo.Spec.output ~self:(u mod n_inner) (pulled idx).inner))
    in
    (* Phase-king step on the network-wide samples. *)
    let pk_base = peer_count + (k * samples) in
    let votes = Array.init samples (fun s -> (pulled (pk_base + s)).a) in
    let king =
      match king_mode with
      | All_kings ->
        (pulled (pk_base + samples + Counting.Phase_king.king_of_index r_value))
          .a
      | Predicted -> (
        match predicted_king own with
        | Some l when (3 * l) + 2 = r_value -> (pulled (pk_base + samples)).a
        | Some _ | None -> None)
    in
    let { Counting.Phase_king.a; d } =
      Counting.Phase_king.instruction ~cap:big_c thresholds ~index:r_value
        ~self:{ Counting.Phase_king.a = own.tower.a; d = own.tower.d }
        ~votes ~king
    in
    { tower = { inner = inner'; a; d }; prev_r = r_value }
  in
  let output ~self (s : 's state) = tower_spec.Algo.Spec.output ~self s.tower in
  let random_state rng =
    (* Draw order pinned by let-bindings: a-register, R, d-flag, inner
       state. Runs are reproducible from their seed only while it stays
       fixed (test_pulling.ml pins output rows drawn under it). *)
    let raw = Stdx.Rng.int rng (big_c + 1) in
    let prev_r = Stdx.Rng.int rng tau in
    let d = Stdx.Rng.bool rng in
    let inner_state = inner.Algo.Spec.random_state rng in
    let a = if raw = big_c then None else Some raw in
    { tower = { inner = inner_state; a; d }; prev_r }
  in
  let pp_state ppf (s : 's state) =
    let pp_a ppf = function
      | None -> Format.pp_print_string ppf "inf"
      | Some x -> Format.pp_print_int ppf x
    in
    Format.fprintf ppf "{inner=%a; a=%a; d=%d; r=%d}" inner.Algo.Spec.pp_state
      s.tower.inner pp_a s.tower.a
      (if s.tower.d then 1 else 0)
      s.prev_r
  in
  let compare_state (s1 : 's state) (s2 : 's state) =
    let c = tower_spec.Algo.Spec.compare_state s1.tower s2.tower in
    if c <> 0 then c else Int.compare s1.prev_r s2.prev_r
  in
  (* Codes are the tower's code times [tau] plus [prev_r], so their order
     agrees with [compare_state]. The kernel is the generic one: a
     pulling node reads a handful of slots, so there are no vote tallies
     worth caching. *)
  let codec =
    match tower_spec.Algo.Spec.codec with
    | None -> None
    | Some tc -> (
      match Stdx.Imath.mul_checked tc.Algo.Spec.num_states tau with
      | exception Failure _ -> None (* state space exceeds 63-bit codes *)
      | num_states ->
        let encode_state (s : 's state) =
          (tc.Algo.Spec.encode_state s.tower * tau) + s.prev_r
        in
        let decode_state code =
          {
            tower = tc.Algo.Spec.decode_state (code / tau);
            prev_r = code mod tau;
          }
        in
        Some
          {
            Algo.Spec.num_states;
            encode_state;
            decode_state;
            output_code =
              (fun ~self code -> tc.Algo.Spec.output_code ~self (code / tau));
            random_code = (fun rng -> encode_state (random_state rng));
            fresh_kernel =
              Algo.Spec.generic_kernel ~n:big_n ~transition ~output
                ~encode_state ~decode_state;
          })
  in
  let variant =
    match king_mode with Predicted -> "sampled" | All_kings -> "oblivious"
  in
  let spec =
    Algo.Spec.validate_exn
      {
        Algo.Spec.name =
          Printf.sprintf "%s-boost[k=%d,F=%d,C=%d,M=%d](%s)" variant k big_f
            big_c samples inner.Algo.Spec.name;
        n = big_n;
        f = big_f;
        c = big_c;
        deterministic = false;
        state_bits =
          tower_spec.Algo.Spec.state_bits + Stdx.Imath.bits_for tau;
        equal_state = (fun s1 s2 -> compare_state s1 s2 = 0);
        compare_state;
        pp_state;
        random_state;
        all_states = None;
        transition;
        output;
        codec;
      }
  in
  { spec; pulls_per_round; pulls; pull_count }

let construct ~inner ~k ~big_f ~big_c ~samples =
  construct_gen ~king_mode:Predicted ~links_seed:0 ~inner ~k ~big_f ~big_c
    ~samples

let construct_oblivious ~inner ~k ~big_f ~big_c ~samples ~links_seed =
  construct_gen ~king_mode:All_kings ~links_seed ~inner ~k ~big_f ~big_c
    ~samples

let tally t (run : 's state Sim.Network.run) =
  let correct = Sim.Network.correct_ids run in
  let max_pulls = ref 0 and total_pulls = ref 0 in
  for round = 0 to run.Sim.Network.rounds - 1 do
    List.iter
      (fun v ->
        let pulls = t.pull_count ~self:v run.Sim.Network.states.(round).(v) in
        total_pulls := !total_pulls + pulls;
        max_pulls := max !max_pulls pulls)
      correct
  done;
  let node_rounds = run.Sim.Network.rounds * List.length correct in
  {
    max_pulls = !max_pulls;
    total_pulls = !total_pulls;
    bits_pulled_per_round =
      (if node_rounds = 0 then 0.0
       else
         float_of_int (!total_pulls * t.spec.Algo.Spec.state_bits)
         /. float_of_int node_rounds);
  }
