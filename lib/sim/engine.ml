type mode = Streaming | Full_horizon

type phase_report = {
  phase : int;
  adversary : string;
  faulty : int list;
  start_round : int;
  end_round : int;
  perturbations : int;
  last_perturbation : int;
  verdict : Online.verdict;
  recovery : int option;
}

type 's schedule_outcome = {
  phases : phase_report list;
  verdict : Online.verdict;
  rounds_simulated : int;
  early_exit : bool;
  horizon : int;
  final_states : 's array;
  recent_outputs : (int * int array) list;
  messages_per_round : int;
  bits_per_round : int;
}

type 's outcome = {
  verdict : Online.verdict;
  rounds_simulated : int;
  early_exit : bool;
  horizon : int;
  final_states : 's array;
  recent_outputs : (int * int array) list;
  faulty : int array;
  messages_per_round : int;
  bits_per_round : int;
}

(* The two state-vector representations behind [run_schedule]'s single
   scheduler loop. All phase/event/detector/report logic is shared; only
   these eight operations differ between the boxed and the flat path, so
   the differential certification reduces to certifying these closures. *)
type 's rep = {
  new_crafter : 's Adversary.t -> unit;
      (** called when a later phase starts: a fresh crafter of its
          adversary, in this representation's one crafting path (phase
          0's is built with the representation) *)
  probe_hook : round:int -> unit;
  outputs_row : unit -> int array;
      (** output row of the current states; the flat path reuses one
          scratch row ({!Online.observe} copies what it keeps) *)
  trace_hook : round:int -> outputs:int array -> unit;
  begin_corrupt : unit -> unit;
      (** called once before a corruption event's victims are struck *)
  corrupt_node : int -> unit;
  advance : round:int -> unit;  (** craft + transition + buffer swap *)
  final_states : unit -> 's array;
}

(* Span sampling: timing every round would double-read the clock 3x per
   round — 5-15% on the flat hot loop, blowing the observability budget.
   Every 16th round is timed instead and the recorded totals scaled back
   up; the sampled-round count is a deterministic function of rounds
   simulated, so span output stays schedule-deterministic (wall values
   excepted). *)
let span_sample_mask = 15

let span_sample_scale = float_of_int (span_sample_mask + 1)

let run_schedule ?probe ?trace ?(tracer = Trace.null) ?metrics
    ?(spans = Stdx.Span.disabled) ?init ?(mode = Streaming) ?min_suffix
    ?window ~(spec : 's Algo.Spec.t) ~(schedule : 's Schedule.t) ~seed () =
  let n = spec.Algo.Spec.n in
  let tr_seams = Trace.seams_on tracer in
  let tr_rounds = Trace.rounds_on tracer in
  let schedule = Schedule.validate ~spec schedule in
  let phases = Array.of_list schedule.Schedule.phases in
  let num_phases = Array.length phases in
  let starts = Array.make num_phases 0 in
  for i = 1 to num_phases - 1 do
    starts.(i) <- starts.(i - 1) + phases.(i - 1).Schedule.duration
  done;
  let total = Schedule.total_rounds schedule in
  let min_suffix =
    Min_suffix.clamp ~c:spec.Algo.Spec.c ~rounds:total min_suffix
  in
  (* RNG stream layout extends the historical [run]/[Network.run] layout
     (init, adversary, per-node) with one corruption stream split {e
     last}, so a single-phase schedule is byte-for-byte the same
     execution as the static run of the same seed. Both representations
     draw from every stream in the same order, which is what makes the
     flat path bit-identical to the boxed one. *)
  let master = Stdx.Rng.create seed in
  let init_rng = Stdx.Rng.split master in
  let adv_rng = Stdx.Rng.split master in
  let node_rng = Array.init n (fun _ -> Stdx.Rng.split master) in
  let corrupt_rng = Stdx.Rng.split master in
  (match init with
  | Some states when Array.length states <> n ->
    invalid_arg "Engine.run_schedule: init has wrong length"
  | _ -> ());
  (* The flat path requires a codec and is bypassed by the 's-typed
     [probe]/[trace] hooks, which need real boxed state vectors every
     round. Structured [tracer]/[metrics] observers are representation-
     independent and stay on. *)
  let flat_codec =
    match (spec.Algo.Spec.codec, probe, trace) with
    | Some codec, None, None -> Some codec
    | _ -> None
  in
  (* Per-phase fault bookkeeping, refreshed at every phase boundary. *)
  let faulty = ref [||] in
  let correct = ref [] in
  (* Sampled span accumulators, shared with the advance closures below.
     [sample] is recomputed at the top of every round; everything here is
     wall-clock-only state — it never feeds back into the execution. *)
  let span_on = Stdx.Span.enabled spans in
  let sample = ref false in
  let craft_s = ref 0.0 in
  let step_s = ref 0.0 in
  let detect_s = ref 0.0 in
  let sampled_rounds = ref 0 in
  let rep =
    match flat_codec with
    | None ->
      let current =
        ref
          (match init with
          | Some states -> Array.copy states
          | None -> Array.init n (fun _ -> spec.Algo.Spec.random_state init_rng))
      in
      let crafter = ref (phases.(0).Schedule.adversary.Adversary.fresh ()) in
      {
        new_crafter = (fun a -> crafter := a.Adversary.fresh ());
        probe_hook =
          (fun ~round ->
            match probe with
            | Some p -> p ~round ~states:!current
            | None -> ());
        outputs_row =
          (fun () ->
            Array.mapi (fun v s -> spec.Algo.Spec.output ~self:v s) !current);
        trace_hook =
          (fun ~round ~outputs ->
            match trace with
            | Some tr -> tr ~round ~states:!current ~outputs
            | None -> ());
        (* Corrupt a copy: full traces already materialised by a [trace]
           hook hold the genuine pre-event rows. *)
        begin_corrupt = (fun () -> current := Array.copy !current);
        corrupt_node =
          (fun v -> !current.(v) <- spec.Algo.Spec.random_state corrupt_rng);
        advance =
          (fun ~round ->
            let fa = !faulty in
            let cur = !current in
            let c0 = if !sample then Stdx.Span.now spans else 0.0 in
            let crafted =
              if Array.length fa = 0 then [||]
              else
                !crafter.Adversary.craft ~spec ~rng:adv_rng ~round ~states:cur
                  ~faulty:fa
            in
            let s0 = if !sample then Stdx.Span.now spans else 0.0 in
            if !sample then craft_s := !craft_s +. (s0 -. c0);
            (* Per-recipient view: truth everywhere, overridden on faulty
               slots. *)
            let next =
              Array.init n (fun v ->
                  let received = Array.copy cur in
                  Array.iteri
                    (fun fi sender -> received.(sender) <- crafted.(fi).(v))
                    fa;
                  spec.Algo.Spec.transition ~self:v ~rng:node_rng.(v) received)
            in
            current := next;
            if !sample then step_s := !step_s +. (Stdx.Span.now spans -. s0));
        final_states = (fun () -> !current);
      }
    | Some codec ->
      let num_states = codec.Algo.Spec.num_states in
      let encode = codec.Algo.Spec.encode_state in
      let decode = codec.Algo.Spec.decode_state in
      let cur = ref (Statebuf.create ~num_states n) in
      let nxt = ref (Statebuf.create ~num_states n) in
      let kernel = codec.Algo.Spec.fresh_kernel () in
      let recv = Array.make n 0 in
      let outs = Array.make n 0 in
      let env =
        {
          Adversary.n;
          random_code = codec.Algo.Spec.random_code;
          output_code = codec.Algo.Spec.output_code;
          fresh_kernel = codec.Algo.Spec.fresh_kernel;
        }
      in
      let crafter =
        ref (phases.(0).Schedule.adversary.Adversary.fresh_flat env)
      in
      (* Crafted message codes, [crafted.(fi * n + r)] = code the fi-th
         faulty node sends recipient r. Sized once for the worst legal
         faulty set; the phase's flat kernel writes into it. *)
      let crafted = Array.make (max 1 (spec.Algo.Spec.f * n)) 0 in
      (* Recipient visit order. Recipients whose crafted columns are
         identical are stepped consecutively, so kernels that cache
         their received-vector scan (e.g. the boost tower) refresh once
         per distinct column instead of once per node — the difference
         between hostile and benign throughput. Reordering is sound
         because every node draws from its own [node_rng] stream. *)
      let visit = Array.init n Fun.id in
      (match init with
      | Some states ->
        Array.iteri (fun v s -> Statebuf.set !cur v (encode s)) states
      | None ->
        for v = 0 to n - 1 do
          Statebuf.set !cur v (encode (spec.Algo.Spec.random_state init_rng))
        done);
      (* Lexicographic order on crafted columns; ties keep index order so
         the grouping is deterministic. A while-loop, not an inner
         recursive function — a closure here would allocate on every
         comparison of the hot loop. *)
      let col_cmp nf a b =
        let c = ref 0 in
        let fi = ref 0 in
        while !c = 0 && !fi < nf do
          c := Int.compare crafted.((!fi * n) + a) crafted.((!fi * n) + b);
          incr fi
        done;
        !c
      in
      let group_recipients nf =
        for v = 0 to n - 1 do
          visit.(v) <- v
        done;
        for i = 1 to n - 1 do
          let x = visit.(i) in
          let j = ref (i - 1) in
          while !j >= 0 && col_cmp nf visit.(!j) x > 0 do
            visit.(!j + 1) <- visit.(!j);
            decr j
          done;
          visit.(!j + 1) <- x
        done
      in
      {
        new_crafter = (fun a -> crafter := a.Adversary.fresh_flat env);
        probe_hook = (fun ~round:_ -> ());
        outputs_row =
          (fun () ->
            for v = 0 to n - 1 do
              outs.(v) <- codec.Algo.Spec.output_code ~self:v (Statebuf.get !cur v)
            done;
            outs);
        trace_hook = (fun ~round:_ ~outputs:_ -> ());
        begin_corrupt = (fun () -> ());
        corrupt_node =
          (fun v ->
            Statebuf.set !cur v
              (encode (spec.Algo.Spec.random_state corrupt_rng)));
        advance =
          (fun ~round ->
            let fa = !faulty in
            let nf = Array.length fa in
            let c0 = if !sample then Stdx.Span.now spans else 0.0 in
            if nf > 0 then begin
              !crafter.Adversary.craft_flat ~rng:adv_rng ~round ~states:!cur
                ~faulty:fa ~out:crafted;
              group_recipients nf
            end;
            let s0 = if !sample then Stdx.Span.now spans else 0.0 in
            if !sample then craft_s := !craft_s +. (s0 -. c0);
            Statebuf.blit_to !cur recv n;
            for i = 0 to n - 1 do
              (* Faulty slots are rewritten for every recipient, so the
                 shared recv scratch never needs restoring. *)
              let v = if nf = 0 then i else visit.(i) in
              for fi = 0 to nf - 1 do
                recv.(fa.(fi)) <- crafted.((fi * n) + v)
              done;
              Statebuf.set !nxt v
                (kernel.Algo.Spec.step ~self:v ~rng:node_rng.(v) recv)
            done;
            let tmp = !cur in
            cur := !nxt;
            nxt := tmp;
            if !sample then step_s := !step_s +. (Stdx.Span.now spans -. s0));
        final_states =
          (fun () -> Array.init n (fun v -> decode (Statebuf.get !cur v)));
      }
  in
  let enter_phase i =
    let p = phases.(i) in
    let fa =
      Schedule.validate_faulty ~who:"Engine.run_schedule" ~n
        ~f:spec.Algo.Spec.f p.Schedule.faulty
    in
    let is_faulty = Array.make n false in
    Array.iter (fun v -> is_faulty.(v) <- true) fa;
    faulty := fa;
    correct := List.filter (fun v -> not is_faulty.(v)) (List.init n Fun.id);
    if i > 0 then rep.new_crafter p.Schedule.adversary;
    if tr_seams then
      Trace.emit tracer
        (Trace.Phase_start
           {
             round = starts.(i);
             phase = i;
             adversary = Adversary.name p.Schedule.adversary;
             faulty = Array.to_list fa;
           })
  in
  enter_phase 0;
  let detector =
    Online.create ?window ~c:spec.Algo.Spec.c ~correct:!correct ~min_suffix ()
  in
  let pending = ref schedule.Schedule.events in
  let reports = ref [] in
  (* Phase entry itself is a perturbation: the phase inherits whatever
     states the previous phase (or the arbitrary initialisation, for
     phase 0) left behind. *)
  let last_pert = ref 0 in
  let pert_count = ref 1 in
  let corruption_events = ref 0 in
  let corrupted_nodes = ref 0 in
  let clamped_events = ref 0 in
  let t = ref 0 in
  let stop = ref false in
  let early = ref false in
  let phase_idx = ref 0 in
  let finish_phase ~end_round =
    let verdict = Online.verdict detector in
    let recovery =
      match verdict with
      | Online.Stabilized s -> Some (s - !last_pert)
      | Online.Not_stabilized -> None
    in
    reports :=
      {
        phase = !phase_idx;
        adversary = Adversary.name phases.(!phase_idx).Schedule.adversary;
        faulty = Array.to_list !faulty;
        start_round = starts.(!phase_idx);
        end_round;
        perturbations = !pert_count;
        last_perturbation = !last_pert;
        verdict;
        recovery;
      }
      :: !reports;
    if tr_seams then
      Trace.emit tracer
        (Trace.Verdict
           {
             round = end_round;
             phase = !phase_idx;
             stabilized =
               (match verdict with
               | Online.Stabilized s -> Some s
               | Online.Not_stabilized -> None);
             recovery;
           })
  in
  (* Transient corruption strikes before the round's row is observed.
     Defined outside the round loop: a closure created per round would
     allocate even on the (typical) event-free rounds. *)
  let rec apply_events () =
      match !pending with
      | { Schedule.round; victims } :: rest when round = !t ->
        pending := rest;
        let correct_arr = Array.of_list !correct in
        let avail = Array.length correct_arr in
        let k = min victims avail in
        let hit = ref [] in
        if k > 0 then begin
          rep.begin_corrupt ();
          List.iter
            (fun i ->
              hit := correct_arr.(i) :: !hit;
              rep.corrupt_node correct_arr.(i))
            (Stdx.Rng.sample_without_replacement corrupt_rng k avail)
        end;
        incr corruption_events;
        corrupted_nodes := !corrupted_nodes + k;
        if k < victims then incr clamped_events;
        if tr_seams then
          Trace.emit tracer
            (Trace.Corruption
               {
                 round = !t;
                 phase = !phase_idx;
                 requested = victims;
                 victims = List.sort Int.compare !hit;
               });
        Online.reset detector;
        if tr_seams then
          Trace.emit tracer
            (Trace.Detector_reset { round = !t; phase = !phase_idx });
        last_pert := !t;
        incr pert_count;
        apply_events ()
      | _ -> ()
  in
  while not !stop do
    (* Phase boundary: the outgoing phase's verdict is frozen before the
       boundary row is observed under the incoming fault pattern. A
       while-loop so zero-duration phases still produce reports. *)
    while !phase_idx + 1 < num_phases && !t = starts.(!phase_idx + 1) do
      finish_phase ~end_round:!t;
      incr phase_idx;
      enter_phase !phase_idx;
      Online.reset ~correct:!correct detector;
      if tr_seams then
        Trace.emit tracer
          (Trace.Detector_reset { round = !t; phase = !phase_idx });
      last_pert := !t;
      pert_count := 1
    done;
    apply_events ();
    rep.probe_hook ~round:!t;
    sample := span_on && !t land span_sample_mask = 0;
    let d0 = if !sample then Stdx.Span.now spans else 0.0 in
    let outs = rep.outputs_row () in
    rep.trace_hook ~round:!t ~outputs:outs;
    if tr_rounds then
      Trace.emit tracer (Trace.Round { round = !t; phase = !phase_idx });
    Online.observe detector ~round:!t outs;
    if !sample then begin
      detect_s := !detect_s +. (Stdx.Span.now spans -. d0);
      incr sampled_rounds
    end;
    if
      mode = Streaming
      && !phase_idx = num_phases - 1
      && !pending = []
      && Online.stabilised detector
    then begin
      early := !t < total;
      stop := true
    end
    else if !t >= total then stop := true
    else begin
      rep.advance ~round:!t;
      incr t
    end
  done;
  (* Uniform with the phase-boundary convention: end_round is the round
     at which the phase ended (= rounds_simulated for the final phase),
     not one past it. *)
  finish_phase ~end_round:!t;
  let messages_per_round = n * (n - 1) in
  let reports = List.rev !reports in
  if span_on && !sampled_rounds > 0 then begin
    Stdx.Span.record ~count:!sampled_rounds spans "engine.craft"
      (!craft_s *. span_sample_scale);
    Stdx.Span.record ~count:!sampled_rounds spans "engine.step"
      (!step_s *. span_sample_scale);
    Stdx.Span.record ~count:!sampled_rounds spans "engine.detect"
      (!detect_s *. span_sample_scale)
  end;
  (match metrics with
  | None -> ()
  | Some m ->
    Stdx.Metrics.incr m "engine.runs";
    if flat_codec <> None then Stdx.Metrics.incr m "engine.flat_runs";
    if span_on then
      Stdx.Metrics.incr ~by:!sampled_rounds m "engine.sampled_rounds";
    Stdx.Metrics.incr ~by:!t m "engine.rounds";
    Stdx.Metrics.incr ~by:(!t * messages_per_round) m "engine.messages";
    if !early then Stdx.Metrics.incr m "engine.early_exits";
    Stdx.Metrics.incr ~by:!corruption_events m "engine.corruption_events";
    Stdx.Metrics.incr ~by:!corrupted_nodes m "engine.corrupted_nodes";
    Stdx.Metrics.incr ~by:!clamped_events m "engine.clamped_events";
    List.iter
      (fun r ->
        match r.recovery with
        | Some rec_rounds ->
          Stdx.Metrics.observe m "engine.recovery_rounds"
            (float_of_int rec_rounds)
        | None -> Stdx.Metrics.incr m "engine.phase_failures")
      reports);
  {
    phases = reports;
    verdict = Online.verdict detector;
    rounds_simulated = !t;
    early_exit = !early;
    horizon = total;
    final_states = rep.final_states ();
    recent_outputs = Online.recent detector;
    messages_per_round;
    bits_per_round = messages_per_round * spec.Algo.Spec.state_bits;
  }

let run ?probe ?trace ?tracer ?metrics ?spans ?init ?mode ?min_suffix ?window
    ~(spec : 's Algo.Spec.t) ~(adversary : 's Adversary.t) ~faulty ~rounds
    ~seed () =
  let n = spec.Algo.Spec.n in
  (* Validate eagerly so error messages keep their historical prefix. *)
  let faulty_arr =
    Schedule.validate_faulty ~who:"Engine.run" ~n ~f:spec.Algo.Spec.f faulty
  in
  (match init with
  | Some states when Array.length states <> n ->
    invalid_arg "Engine.run: init has wrong length"
  | _ -> ());
  let schedule = Schedule.static ~adversary ~faulty ~rounds in
  let o =
    run_schedule ?probe ?trace ?tracer ?metrics ?spans ?init ?mode ?min_suffix
      ?window ~spec ~schedule ~seed ()
  in
  {
    verdict = o.verdict;
    rounds_simulated = o.rounds_simulated;
    early_exit = o.early_exit;
    horizon = rounds;
    final_states = o.final_states;
    recent_outputs = o.recent_outputs;
    faulty = faulty_arr;
    messages_per_round = o.messages_per_round;
    bits_per_round = o.bits_per_round;
  }
