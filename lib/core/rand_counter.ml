let make ~n ~f : int Algo.Spec.t =
  if n < 2 then invalid_arg "Rand_counter.make: n < 2";
  if f < 0 || 3 * f >= n then
    invalid_arg "Rand_counter.make: need 0 <= f < n/3";
  let transition ~self:_ ~rng received =
    let z = Algo.Vote.counts_int ~max:2 received in
    if z.(0) >= n - f then 1
    else if z.(1) >= n - f then 0
    else Stdx.Rng.int rng 2
  in
  {
    Algo.Spec.name = Printf.sprintf "rand-2-counter(n=%d,f=%d)" n f;
    n;
    f;
    c = 2;
    deterministic = false;
    state_bits = 1;
    equal_state = Int.equal;
    compare_state = Int.compare;
    pp_state = Format.pp_print_int;
    random_state = (fun rng -> Stdx.Rng.int rng 2);
    all_states = Some [ 0; 1 ];
    transition;
    output = (fun ~self:_ s -> s);
    codec =
      (* The identity kernel consumes the per-node rng exactly as the
         boxed transition does, so engine runs match the boxed reference
         even though the algorithm is randomised. *)
      Some
        (Algo.Spec.identity_codec ~num_states:2 ~transition
           ~output:(fun ~self:_ code -> code)
           ());
  }

let expected_stabilisation_hint ~n ~f = 2.0 ** float_of_int (2 * (n - f))
