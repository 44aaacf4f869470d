type 's state = {
  inner : 's;
  a : int option;
  d : bool;
  prev_r : int;
}

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

(* Sampled phase-king instruction step (Section 5.3, "Randomised Phase
   King"): the N-F quorum becomes a 2/3 fraction of the M samples, the
   F+1 bar becomes a 1/3 fraction (Lemma 8). *)
let step_sampled ~cap ~m ~index ~self ~sampled_a ~king_a =
  let { Counting.Phase_king.a = own_a; d = own_d } = self in
  let clamp = function
    | Some x when x >= 0 && x < cap -> Some x
    | Some _ | None -> None
  in
  let sampled_a = List.map clamp sampled_a in
  let king_a = clamp king_a in
  let count v = List.length (List.filter (fun x -> x = v) sampled_a) in
  let two_thirds z = 3 * z >= 2 * m in
  let one_third z = 3 * z > m in
  let increment = Counting.Phase_king.increment ~cap in
  match index mod 3 with
  | 0 ->
    let a = if two_thirds (count own_a) then own_a else None in
    { Counting.Phase_king.a = increment a; d = own_d }
  | 1 ->
    let d = two_thirds (count own_a) in
    let rec find j =
      if j >= cap then None
      else if one_third (count (Some j)) then Some j
      else find (j + 1)
    in
    { Counting.Phase_king.a = increment (find 0); d }
  | _ ->
    let a =
      if own_a = None || not own_d then
        let imposed = match king_a with None -> cap | Some x -> min cap x in
        Some ((imposed + 1) mod cap)
      else increment own_a
    in
    { Counting.Phase_king.a; d = true }

let construct_gen ~king_mode ~links_seed ~(inner : 's Algo.Spec.t) ~k ~big_f
    ~big_c ~samples =
  if samples < 1 then invalid_arg "Sampled.construct: samples < 1";
  let p =
    Counting.Boost.plan_exn ~k ~big_f ~big_c ~n_inner:inner.Algo.Spec.n
      ~f_inner:inner.Algo.Spec.f ~inner_c:inner.Algo.Spec.c
  in
  let view_params =
    Array.init k (fun level ->
        Counting.Counter_view.make_params ~tau:p.Counting.Boost.tau
          ~m:p.Counting.Boost.m ~level ())
  in
  let n_inner = p.Counting.Boost.n_inner in
  let big_n = p.Counting.Boost.big_n in
  let tau = p.Counting.Boost.tau in
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
  let transition ~self ~rng (received : 's state array) =
    let own = received.(self) in
    let targets = pulls ~self ~rng own in
    let pulled i = received.(targets.(i)) in
    (* The block's message vector: the pulled peers and the node itself. *)
    let block = self / n_inner in
    let block_messages =
      Array.init n_inner (fun j -> received.((block * n_inner) + j).inner)
    in
    let inner' =
      inner.Algo.Spec.transition ~self:(self mod n_inner) ~rng block_messages
    in
    (* Leader vote from the per-block samples. *)
    let peer_count = n_inner - 1 in
    let sample_view idx =
      let target = targets.(peer_count + idx) in
      let value =
        inner.Algo.Spec.output ~self:(target mod n_inner)
          (pulled (peer_count + idx)).inner
      in
      Counting.Counter_view.of_value view_params.(target / n_inner) value
    in
    let block_votes =
      Array.init k (fun block ->
          let ballots =
            Array.init samples (fun s ->
                (sample_view ((block * samples) + s)).Counting.Counter_view.b)
          in
          Algo.Vote.majority_int ~default:0 ballots)
    in
    let leader = Algo.Vote.majority_int ~default:0 block_votes in
    let r_ballots =
      Array.init samples (fun s ->
          (sample_view ((leader * samples) + s)).Counting.Counter_view.r)
    in
    let r_value = Algo.Vote.majority_int ~default:0 r_ballots in
    (* Phase-king step on the network-wide samples. *)
    let pk_base = peer_count + (k * samples) in
    let sampled_a = List.init samples (fun s -> (pulled (pk_base + s)).a) in
    let king_a =
      match king_mode with
      | All_kings ->
        (pulled (pk_base + samples + Counting.Phase_king.king_of_index r_value))
          .a
      | Predicted ->
        let predicted = (own.prev_r + 1) mod tau in
        if predicted = r_value && predicted mod 3 = 2 then
          (pulled (pk_base + samples)).a
        else None
    in
    let reg =
      step_sampled ~cap:big_c ~m:samples ~index:r_value
        ~self:{ Counting.Phase_king.a = own.a; d = own.d }
        ~sampled_a ~king_a
    in
    {
      inner = inner';
      a = reg.Counting.Phase_king.a;
      d = reg.Counting.Phase_king.d;
      prev_r = r_value;
    }
  in
  let output ~self:_ (s : 's state) =
    match s.a with Some x -> x mod big_c | None -> 0
  in
  let random_state rng =
    (* Draw order pinned by let-bindings: a-register, R, d-flag, inner
       state. Runs are reproducible from their seed only while it stays
       fixed (test_pulling.ml pins output rows drawn under it). *)
    let raw = Stdx.Rng.int rng (big_c + 1) in
    let prev_r = Stdx.Rng.int rng tau in
    let d = Stdx.Rng.bool rng in
    let inner_state = inner.Algo.Spec.random_state rng in
    let a = if raw = big_c then None else Some raw in
    { inner = inner_state; a; d; prev_r }
  in
  let pp_state ppf (s : 's state) =
    let pp_a ppf = function
      | None -> Format.pp_print_string ppf "inf"
      | Some x -> Format.pp_print_int ppf x
    in
    Format.fprintf ppf "{inner=%a; a=%a; d=%d; r=%d}" inner.Algo.Spec.pp_state
      s.inner pp_a s.a
      (if s.d then 1 else 0)
      s.prev_r
  in
  let compare_state (s1 : 's state) (s2 : 's state) =
    let c = inner.Algo.Spec.compare_state s1.inner s2.inner in
    if c <> 0 then c
    else compare (s1.a, s1.d, s1.prev_r) (s2.a, s2.d, s2.prev_r)
  in
  (* Codes pack (inner code, a, d, prev_r), most significant first, so
     their order agrees with [compare_state]. The kernel is the generic
     one: a pulling node reads a handful of slots, so there are no vote
     tallies worth caching. *)
  let codec =
    match inner.Algo.Spec.codec with
    | None -> None
    | Some ic -> (
      let num_a = big_c + 1 in
      match
        Stdx.Imath.mul_checked
          (Stdx.Imath.mul_checked ic.Algo.Spec.num_states (num_a * 2))
          tau
      with
      | exception Failure _ -> None (* state space exceeds 63-bit codes *)
      | num_states ->
        let encode_state (s : 's state) =
          let a_code = match s.a with None -> 0 | Some x -> x + 1 in
          let d = if s.d then 1 else 0 in
          (((((ic.Algo.Spec.encode_state s.inner * num_a) + a_code) * 2) + d)
           * tau)
          + s.prev_r
        in
        let decode_state code =
          let rest = code / tau / 2 in
          let a_code = rest mod num_a in
          {
            inner = ic.Algo.Spec.decode_state (rest / num_a);
            a = (if a_code = 0 then None else Some (a_code - 1));
            d = code / tau mod 2 = 1;
            prev_r = code mod tau;
          }
        in
        Some
          {
            Algo.Spec.num_states;
            encode_state;
            decode_state;
            output_code = (fun ~self code -> output ~self (decode_state code));
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
          inner.Algo.Spec.state_bits
          + Stdx.Imath.bits_for (big_c + 1)
          + 1
          + Stdx.Imath.bits_for tau;
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
