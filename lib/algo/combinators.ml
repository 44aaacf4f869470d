let project_counter (spec : 's Spec.t) ~modulus =
  if modulus < 1 then invalid_arg "Combinators.project_counter: modulus < 1";
  if spec.c mod modulus <> 0 then
    invalid_arg
      (Printf.sprintf
         "Combinators.project_counter: %d does not divide c = %d (%s)"
         modulus spec.c spec.name);
  {
    spec with
    c = modulus;
    name = Printf.sprintf "%s mod %d" spec.name modulus;
    output = (fun ~self s -> spec.output ~self s mod modulus);
    codec =
      Option.map
        (fun (codec : 's Spec.codec) ->
          {
            codec with
            Spec.output_code =
              (fun ~self code -> codec.output_code ~self code mod modulus);
            fresh_kernel =
              (fun () ->
                let kernel = codec.fresh_kernel () in
                {
                  kernel with
                  Spec.step_output =
                    (fun ~self ~rng received ->
                      kernel.step_output ~self ~rng received mod modulus);
                });
          })
        spec.codec;
  }

let rename (spec : 's Spec.t) name = { spec with name }

let with_claimed_resilience (spec : 's Spec.t) ~f =
  if f < 0 then invalid_arg "Combinators.with_claimed_resilience: f < 0";
  { spec with f }
