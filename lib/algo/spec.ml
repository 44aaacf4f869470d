type kernel = {
  load : int array -> unit;
  set : int -> int -> unit;
  step : self:int -> rng:Stdx.Rng.t -> int array -> int;
  step_output : self:int -> rng:Stdx.Rng.t -> int array -> int;
}

type 's codec = {
  num_states : int;
  encode_state : 's -> int;
  decode_state : int -> 's;
  output_code : self:int -> int -> int;
  random_code : Stdx.Rng.t -> int;
  fresh_kernel : unit -> kernel;
}

type 's t = {
  name : string;
  n : int;
  f : int;
  c : int;
  deterministic : bool;
  state_bits : int;
  equal_state : 's -> 's -> bool;
  compare_state : 's -> 's -> int;
  pp_state : Format.formatter -> 's -> unit;
  random_state : Stdx.Rng.t -> 's;
  all_states : 's list option;
  transition : self:int -> rng:Stdx.Rng.t -> 's array -> 's;
  output : self:int -> 's -> int;
  codec : 's codec option;
}

let generic_kernel ~n ~transition ~output ~encode_state ~decode_state () =
  let scratch = Array.make n (decode_state 0) in
  let load received =
    for j = 0 to n - 1 do
      scratch.(j) <- decode_state received.(j)
    done
  in
  let set u code = scratch.(u) <- decode_state code in
  let step ~self ~rng _received = encode_state (transition ~self ~rng scratch) in
  let step_output ~self ~rng _received =
    output ~self (transition ~self ~rng scratch)
  in
  { load; set; step; step_output }

let identity_codec ?random_code ~num_states ~transition ~output () : int codec
    =
  if num_states < 1 then invalid_arg "Spec.identity_codec: num_states < 1";
  let random_code =
    (* Must consume the rng exactly as the spec's [random_state]; the
       default matches the uniform draw every identity-coded family in
       this repository uses. *)
    match random_code with
    | Some rc -> rc
    | None -> Stdx.Rng.int_sampler num_states
  in
  {
    num_states;
    encode_state = (fun s -> s);
    decode_state = (fun code -> code);
    output_code = output;
    random_code;
    (* No scratch, so every run may share one kernel value. *)
    fresh_kernel =
      (let kernel =
         {
           load = ignore;
           set = (fun _ _ -> ());
           step = transition;
           step_output =
             (fun ~self ~rng received ->
               output ~self (transition ~self ~rng received));
         }
       in
       fun () -> kernel);
  }

let derive_codec spec =
  match spec.all_states with
  | None -> None
  | Some states ->
    let arr = Array.of_list (List.sort_uniq spec.compare_state states) in
    let num_states = Array.length arr in
    let decode_state code =
      if code < 0 || code >= num_states then
        invalid_arg
          (Printf.sprintf "Spec.decode_state (%s): code %d outside [0,%d)"
             spec.name code num_states)
      else arr.(code)
    in
    let encode_state s =
      let lo = ref 0 and hi = ref (num_states - 1) in
      let found = ref (-1) in
      while !found < 0 && !lo <= !hi do
        let mid = (!lo + !hi) / 2 in
        let cmp = spec.compare_state s arr.(mid) in
        if cmp = 0 then found := mid
        else if cmp < 0 then hi := mid - 1
        else lo := mid + 1
      done;
      if !found < 0 then
        invalid_arg
          (Printf.sprintf "Spec.encode_state (%s): state not in all_states"
             spec.name)
      else !found
    in
    let output_code ~self code = spec.output ~self (decode_state code) in
    let random_code rng = encode_state (spec.random_state rng) in
    let fresh_kernel =
      generic_kernel ~n:spec.n ~transition:spec.transition ~output:spec.output
        ~encode_state ~decode_state
    in
    Some
      {
        num_states;
        encode_state;
        decode_state;
        output_code;
        random_code;
        fresh_kernel;
      }

let with_derived_codec spec = { spec with codec = derive_codec spec }

let validate spec =
  let fail fmt = Format.kasprintf (fun msg -> Error msg) fmt in
  if spec.n < 1 then fail "n = %d < 1" spec.n
  else if spec.f < 0 then fail "f = %d < 0" spec.f
  else if spec.c < 1 then fail "c = %d < 1" spec.c
  else if spec.state_bits < 1 then fail "state_bits = %d < 1" spec.state_bits
  else
    let check_states () =
      match spec.all_states with
      | None -> Ok ()
      | Some states ->
        let count = List.length states in
        if count = 0 then fail "all_states is empty"
        else if spec.state_bits < Stdx.Imath.bits_for count then
          fail "state_bits = %d < ceil(log2 %d)" spec.state_bits count
        else begin
          let bad_output =
            List.find_opt
              (fun s ->
                let exception Bad in
                try
                  for v = 0 to spec.n - 1 do
                    let o = spec.output ~self:v s in
                    if o < 0 || o >= spec.c then raise Bad
                  done;
                  false
                with Bad -> true)
              states
          in
          match bad_output with
          | Some s ->
            fail "output outside [0,%d) for state %a" spec.c spec.pp_state s
          | None -> Ok ()
        end
    in
    let check_codec () =
      match spec.codec with
      | None -> Ok ()
      | Some codec ->
        if codec.num_states < 1 then
          fail "codec.num_states = %d < 1" codec.num_states
        else if spec.state_bits < Stdx.Imath.bits_for codec.num_states then
          fail "state_bits = %d < ceil(log2 %d) codec states" spec.state_bits
            codec.num_states
        else begin
          (* [random_code] must be [encode_state . random_state] with the
             same rng consumption: check values on identical streams and
             that the streams stay in lockstep afterwards. *)
          let random_code_ok =
            let ok = ref true in
            for seed = 1 to 8 do
              let r1 = Stdx.Rng.create seed and r2 = Stdx.Rng.create seed in
              let code = codec.random_code r1 in
              let s = spec.random_state r2 in
              if
                code < 0 || code >= codec.num_states
                || (not (spec.equal_state (codec.decode_state code) s))
                || Stdx.Rng.bits r1 <> Stdx.Rng.bits r2
              then ok := false
            done;
            !ok
          in
          if not random_code_ok then
            fail "codec.random_code diverges from random_state"
          else
          match spec.all_states with
          | None -> Ok ()
          | Some states ->
            let distinct = List.sort_uniq spec.compare_state states in
            if List.length distinct <> codec.num_states then
              fail "codec.num_states = %d but all_states has %d states"
                codec.num_states (List.length distinct)
            else
              let bad =
                List.find_opt
                  (fun s ->
                    let code = codec.encode_state s in
                    code < 0 || code >= codec.num_states
                    || not (spec.equal_state (codec.decode_state code) s))
                  distinct
              in
              (match bad with
              | Some s ->
                fail "codec does not round-trip state %a" spec.pp_state s
              | None -> Ok ())
        end
    in
    (match check_states () with Ok () -> check_codec () | e -> e)

let validate_exn spec =
  match validate spec with
  | Ok () -> spec
  | Error msg -> invalid_arg (Printf.sprintf "Spec.validate (%s): %s" spec.name msg)

let counter_values spec states =
  Array.mapi (fun v s -> spec.output ~self:v s) states

type packed = Packed : 's t -> packed

let packed_n (Packed s) = s.n
let packed_f (Packed s) = s.f
let packed_c (Packed s) = s.c
let packed_state_bits (Packed s) = s.state_bits
