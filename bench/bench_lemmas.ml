(* Experiments T2 and E7: executable checks of the paper's lemma layer.

   - Table 2 / Lemmas 4-5: register-level phase-king runs under random
     per-recipient Byzantine values; agreement establishment within one
     non-faulty king block and zero persistence violations.
   - Lemma 1: measured pointer dwell lengths per level vs the predicted
     c_{i-1}.
   - Lemma 3: measured length of the common-R windows vs tau. *)

let random_fabricator ~cap seed =
  let rng = Stdx.Rng.create seed in
  fun ~round:_ ~recipient:_ ~faulty:_ ->
    let raw = Stdx.Rng.int rng (cap + 2) in
    if raw >= cap then None else Some raw

let phase_king_lemmas () =
  Bench_common.section "Table 2 / Lemmas 4-5 - phase-king instruction sets";
  let big_n = 10 and big_f = 3 and cap = 8 in
  let tau = Counting.Phase_king.tau ~big_f in
  (* Lemma 4: from random registers, how many rounds until agreement,
     across 200 trials with random Byzantine values. *)
  let trials = 200 in
  let establishment = ref [] in
  for seed = 1 to trials do
    let rng = Stdx.Rng.create (1000 + seed) in
    let init =
      Array.init big_n (fun _ ->
          let raw = Stdx.Rng.int rng (cap + 1) in
          {
            Counting.Phase_king.a = (if raw = cap then None else Some raw);
            d = Stdx.Rng.bool rng;
          })
    in
    let faulty = [ 0; 4; 7 ] in
    let trace =
      Counting.Phase_king.run_registers ~cap ~big_f ~faulty
        ~fabricator:(random_fabricator ~cap seed) ~init ~start_index:0
        ~rounds:tau
    in
    let rec first_agreement t =
      if t > tau then None
      else if Counting.Phase_king.agreement ~cap ~faulty trace.(t) <> None then
        Some t
      else first_agreement (t + 1)
    in
    match first_agreement 0 with
    | Some t -> establishment := t :: !establishment
    | None -> Printf.printf "  trial %d: NO AGREEMENT within tau rounds!\n" seed
  done;
  let s = Stdx.Stats.summarize_ints !establishment in
  Printf.printf
    "Lemma 4 (N=%d, F=%d, C=%d): agreement established in all %d/%d trials\n\
     within tau = %d rounds; establishment round: %s\n"
    big_n big_f cap (List.length !establishment) trials tau
    (Format.asprintf "%a" Stdx.Stats.pp_summary s);
  (* Lemma 5: once agreed, zero violations over long horizons. *)
  let violations = ref 0 in
  for seed = 1 to 50 do
    let faulty = [ 1; 5; 8 ] in
    let init =
      Array.init big_n (fun _ -> { Counting.Phase_king.a = Some 3; d = true })
    in
    let trace =
      Counting.Phase_king.run_registers ~cap ~big_f ~faulty
        ~fabricator:(random_fabricator ~cap (2000 + seed)) ~init
        ~start_index:(seed mod tau) ~rounds:200
    in
    for t = 0 to 200 do
      match Counting.Phase_king.agreement ~cap ~faulty trace.(t) with
      | Some v when v = (3 + t) mod cap -> ()
      | Some _ | None -> incr violations
    done
  done;
  Printf.printf
    "Lemma 5: 50 runs x 200 rounds from an agreed state: %d violations\n\
     (paper: agreement persists and increments mod C under any adversary)\n"
    !violations

let dwell_lengths () =
  Bench_common.section "Lemma 1 - measured pointer dwell lengths vs c_{i-1}";
  let boosted = Bench_common.a12_3 ~c:8 in
  let spec = boosted.Counting.Boost.spec in
  let k = boosted.Counting.Boost.params.Counting.Boost.k in
  (* benign run; record each block's vote per round after stabilisation *)
  let timeline = Array.make k [] in
  let probe ~round ~states =
    if round >= 3000 then begin
      let p = Counting.Boost.probe_states boosted states in
      Array.iteri
        (fun i b -> timeline.(i) <- b :: timeline.(i))
        p.Counting.Boost.block_votes
    end
  in
  let run =
    Sim.Network.run ~spec ~adversary:(Sim.Adversary.benign ())
      ~faulty:[] ~rounds:4200 ~seed:7 ()
  in
  Array.iteri (fun round states -> probe ~round ~states) run.Sim.Network.states;
  let t = Stdx.Table.create [ "block level i"; "predicted dwell c_{i-1}"; "measured dwell (interior segments)" ] in
  Array.iteri
    (fun i history ->
      let history = List.rev history in
      (* segment lengths, dropping the (possibly truncated) first/last *)
      let segments = ref [] and run_len = ref 0 and prev = ref (-1) in
      List.iter
        (fun b ->
          if b = !prev then incr run_len
          else begin
            if !prev >= 0 then segments := !run_len :: !segments;
            prev := b;
            run_len := 1
          end)
        history;
      let interior =
        match List.rev !segments with
        | [] | [ _ ] -> []
        | _ :: rest -> List.filteri (fun i _ -> i < List.length rest - 1) rest
      in
      let predicted =
        Counting.Counter_view.dwell_length
          boosted.Counting.Boost.view_params.(i)
      in
      let measured =
        match interior with
        | [] -> "(window too short to see a full dwell)"
        | _ ->
          let s = Stdx.Stats.summarize_ints interior in
          Printf.sprintf "min %.0f / med %.0f / max %.0f over %d segments"
            s.Stdx.Stats.min s.Stdx.Stats.median s.Stdx.Stats.max
            (List.length interior)
      in
      Stdx.Table.add_row t
        [ string_of_int i; string_of_int predicted; measured ])
    timeline;
  Stdx.Table.print t;
  Printf.printf
    "shape: block i holds each pointer for exactly c_{i-1} = tau*(2m)^i\n\
     rounds once its counter has stabilised (level 2's dwell exceeds the\n\
     observation window, hence fewer or no complete segments).\n"

let r_windows () =
  Bench_common.section "Lemma 3 - common round counter R holds for >= tau rounds";
  let boosted = Bench_common.a12_3 ~c:8 in
  let spec = boosted.Counting.Boost.spec in
  let tau = boosted.Counting.Boost.params.Counting.Boost.tau in
  let streaks = ref [] and streak = ref 0 and prev = ref None in
  let probe ~round ~states =
    if round >= 3000 then begin
      let p = Counting.Boost.probe_states boosted states in
      (match !prev with
      | Some r when (r + 1) mod tau = p.Counting.Boost.r_value -> incr streak
      | Some _ ->
        streaks := !streak :: !streaks;
        streak := 0
      | None -> ());
      prev := Some p.Counting.Boost.r_value
    end
  in
  let run =
    Sim.Network.run ~spec ~adversary:(Sim.Adversary.random_equivocate ())
      ~faulty:[ 1; 6; 11 ] ~rounds:4500 ~seed:21 ()
  in
  Array.iteri (fun round states -> probe ~round ~states) run.Sim.Network.states;
  streaks := !streak :: !streaks;
  let long = List.filter (fun s -> s >= tau) !streaks in
  Printf.printf
    "R-increment streaks in rounds 3000..4500 (A(12,3), 3 Byzantine nodes):\n\
     %d streaks total, %d of length >= tau = %d, longest = %d\n\
     (Lemma 3 requires at least one window of >= tau; jumps between\n\
     windows happen at leader handovers and are expected)\n"
    (List.length !streaks) (List.length long) tau
    (List.fold_left max 0 !streaks)
