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

type 's outcome = {
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

(* Span sampling: timing every round would double-read the clock 3x per
   round — 5-15% on the flat hot loop, blowing the observability budget.
   Every 16th round is timed instead — rounds 15, 31, ..., never the cold
   round 0, whose one-off costs a short run would multiply — and each
   span's total is scaled by its loop's iterations over its sampled ones:
   [sampled k] of the first [k], after its sampled sections' clock reads
   are taken out (Stdx.Span.sections): on a small tower's round those
   reads are most of what the clock measures, and the scale would
   multiply them. Sampled counts depend only on rounds simulated, so
   span output stays schedule-deterministic (wall values excepted). *)
let span_sample_mask = 15

let sampled k = k / (span_sample_mask + 1)

(* The domain's idle kernels and the factory that made them: the last
   finished run's own kernel, then the probe kernel it lent its
   crafters, if any. A run over a codec with that factory takes them,
   leaving the slot empty for runs nested in its hooks, and puts its
   kernels back when it ends. Sound because [load] is the reset
   (Algo.Spec.kernel); short runs skip a tower's scratch, 2886
   major-heap words for A(12,3), and a lookahead crafter's phases skip
   it too. *)
let idle_kernels :
    ((unit -> Algo.Spec.kernel) * Algo.Spec.kernel list) option Domain.DLS.key
    =
  Domain.DLS.new_key (fun () -> None)

(* One run's kernel supply: the idle kernels [fresh_kernel] made, then
   fresh ones. *)
let kernel_supply fresh_kernel =
  let idle =
    ref
      (match Domain.DLS.get idle_kernels with
      | Some (made_by, kernels) when made_by == fresh_kernel ->
        Domain.DLS.set idle_kernels None;
        kernels
      | _ -> [])
  in
  fun () ->
    match !idle with
    | kernel :: rest ->
      idle := rest;
      kernel
    | [] -> fresh_kernel ()

let run ?trace ?(tracer = Trace.null) ?metrics ?(spans = Stdx.Span.disabled)
    ?init ?(mode = Streaming) ?min_suffix ~(spec : 's Algo.Spec.t)
    ~(schedule : 's Schedule.t) ~seed () =
  let n = spec.Algo.Spec.n in
  let codec =
    match spec.Algo.Spec.codec with
    | Some codec -> codec
    | None ->
      invalid_arg
        (Printf.sprintf
           "Engine.run: spec %s (%d state bits) has no state codec"
           spec.Algo.Spec.name spec.Algo.Spec.state_bits)
  in
  let tr_seams = Trace.seams_on tracer in
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
  (* RNG stream layout: init, adversary, per-node, then the corruption
     stream split {e last}, so it never shifts the streams a static
     schedule draws from. The boxed reference loop in test/reference.ml
     draws from every stream in the same order, which is what the flat
     path is certified against. *)
  let master = Stdx.Rng.create seed in
  let init_rng = Stdx.Rng.split master in
  let adv_rng = Stdx.Rng.split master in
  let node_rng = Array.init n (fun _ -> Stdx.Rng.split master) in
  let corrupt_rng = Stdx.Rng.split master in
  (match init with
  | Some states when Array.length states <> n ->
    invalid_arg "Engine.run: init has wrong length"
  | _ -> ());
  (* Per-phase fault bookkeeping, refreshed at every phase boundary. *)
  let faulty = ref [||] in
  let correct = ref [] in
  (* Sampled span accumulators. [sample] is recomputed at the top of
     every round; everything here is wall-clock-only state — it never
     feeds back into the execution. *)
  let span_on = Stdx.Span.enabled spans in
  let sample = ref false in
  let craft_s = ref 0.0 in
  let step_s = ref 0.0 in
  let detect_s = ref 0.0 in
  let encode = codec.Algo.Spec.encode_state in
  let decode = codec.Algo.Spec.decode_state in
  let cur = ref (Array.make n 0) in
  let nxt = ref (Array.make n 0) in
  let fresh_kernel = codec.Algo.Spec.fresh_kernel in
  let take_kernel = kernel_supply fresh_kernel in
  let kernel = take_kernel () in
  (* The one probe kernel every crafter of this run borrows, taken on
     first demand. *)
  let probe = ref None in
  let probe_kernel () =
    match !probe with
    | Some kernel -> kernel
    | None ->
      let kernel = take_kernel () in
      probe := Some kernel;
      kernel
  in
  let recv = Array.make n 0 in
  let outs = Array.make n 0 in
  let env =
    {
      Adversary.n;
      c = spec.Algo.Spec.c;
      random_code = codec.Algo.Spec.random_code;
      probe_kernel;
    }
  in
  let crafter = ref (phases.(0).Schedule.adversary.Adversary.fresh_flat env) in
  (* Crafted message codes, [crafted.(fi * n + r)] = code the fi-th
     faulty node sends recipient r. Sized once for the worst legal
     faulty set; the phase's flat kernel writes into it. *)
  let crafted = Array.make (max 1 (spec.Algo.Spec.f * n)) 0 in
  (* Recipient visit order. Recipients whose crafted columns are
     identical are stepped consecutively, so the kernel is announced
     changed slots ([Algo.Spec.kernel.set]) once per distinct column
     instead of once per node, and a kernel that caches derived views of
     its vector (e.g. the boost tower) updates them that often — the
     difference between hostile and benign throughput. Reordering is
     sound because every node draws from its own [node_rng] stream. *)
  let visit = Array.init n Fun.id in
  (* Random states are drawn straight in code space: [random_code]
     consumes the rng exactly like [random_state] (Algo.Spec.codec), so
     no boxed state is built only to be encoded. *)
  let random_code = codec.Algo.Spec.random_code in
  (match init with
  | Some states -> Array.iteri (fun v s -> !cur.(v) <- encode s) states
  | None ->
    for v = 0 to n - 1 do
      !cur.(v) <- random_code init_rng
    done);
  (* Lexicographic order on crafted columns; ties keep index order so the
     grouping is deterministic. A while-loop, not an inner recursive
     function — a closure here would allocate on every comparison of the
     hot loop. *)
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
  let decoded_states () =
    Array.init n (fun v -> decode !cur.(v))
  in
  let enter_phase i =
    let p = phases.(i) in
    (* [Schedule.validate] has checked and sorted every faulty set. *)
    let fa = Array.of_list p.Schedule.faulty in
    let is_faulty = Array.make n false in
    Array.iter (fun v -> is_faulty.(v) <- true) fa;
    faulty := fa;
    correct := List.filter (fun v -> not is_faulty.(v)) (List.init n Fun.id);
    if i > 0 then crafter := p.Schedule.adversary.Adversary.fresh_flat env;
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
    Online.create ~c:spec.Algo.Spec.c ~correct:!correct ~min_suffix ()
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
        List.iter
          (fun i ->
            let v = correct_arr.(i) in
            hit := v :: !hit;
            !cur.(v) <- random_code corrupt_rng)
          (Stdx.Rng.sample_without_replacement corrupt_rng k avail);
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
    sample := span_on && !t land span_sample_mask = span_sample_mask;
    let d0 = if !sample then Stdx.Span.now spans else 0.0 in
    for v = 0 to n - 1 do
      outs.(v) <- codec.Algo.Spec.output_code ~self:v !cur.(v)
    done;
    (* The trace hook sees a freshly decoded row each round, so it may
       keep it: later rounds and corruption events never write into it.
       Unhooked runs never decode. *)
    (match trace with
    | Some tr ->
      tr ~round:!t ~states:(decoded_states ()) ~outputs:(Array.copy outs)
    | None -> ());
    Online.observe detector ~round:!t outs;
    if !sample then detect_s := !detect_s +. (Stdx.Span.now spans -. d0);
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
      let round = !t in
      let fa = !faulty in
      let nf = Array.length fa in
      let c0 = if !sample then Stdx.Span.now spans else 0.0 in
      (* A crafter that declares its rows constant wrote only
         [crafted.(fi * n)]: every recipient sees the view the load
         below builds, so it is stepped in index order with no grouping
         and no per-recipient compare. [varying] counts the faulty
         slots that may differ between recipients: all or none. *)
      let per_recipient =
        nf > 0
        && not
             (!crafter.Adversary.craft_flat ~rng:adv_rng ~round
                ~states:!cur ~faulty:fa ~out:crafted)
      in
      let varying = if per_recipient then nf else 0 in
      if per_recipient then group_recipients nf;
      let s0 = if !sample then Stdx.Span.now spans else 0.0 in
      if !sample then craft_s := !craft_s +. (s0 -. c0);
      (* A typed copy: [Array.blit] would [caml_modify] every slot once
         the buffers live in the major heap. The load announces the
         first visited recipient's faulty slots too, so a row that is one
         code for every recipient needs no [set] at all. *)
      let cur_row = !cur and nxt_row = !nxt in
      for v = 0 to n - 1 do
        recv.(v) <- cur_row.(v)
      done;
      let first = if per_recipient then visit.(0) else 0 in
      for fi = 0 to nf - 1 do
        recv.(fa.(fi)) <- crafted.((fi * n) + first)
      done;
      kernel.Algo.Spec.load recv;
      for i = 0 to n - 1 do
        (* Varying faulty slots are rewritten for every recipient, so
           the shared recv scratch never needs restoring; only the slots
           whose crafted code differs from the previous recipient's are
           announced to the kernel. *)
        let v = if varying = 0 then i else visit.(i) in
        for fi = 0 to varying - 1 do
          let u = fa.(fi) and code = crafted.((fi * n) + v) in
          if recv.(u) <> code then begin
            recv.(u) <- code;
            kernel.Algo.Spec.set u code
          end
        done;
        nxt_row.(v) <- kernel.Algo.Spec.step ~self:v ~rng:node_rng.(v) recv
      done;
      let tmp = !cur in
      cur := !nxt;
      nxt := tmp;
      if !sample then step_s := !step_s +. (Stdx.Span.now spans -. s0);
      incr t
    end
  done;
  (* Uniform with the phase-boundary convention: end_round is the round
     at which the phase ended (= rounds_simulated for the final phase),
     not one past it. *)
  finish_phase ~end_round:!t;
  Domain.DLS.set idle_kernels
    (Some (fresh_kernel, kernel :: Option.to_list !probe));
  let messages_per_round = n * (n - 1) in
  let reports = List.rev !reports in
  (* Rounds 0 .. !t are observed; all but the last are stepped. *)
  let record name iterations secs =
    let k = sampled iterations in
    if k > 0 then
      Stdx.Span.record ~count:k spans name
        (Stdx.Span.sections spans k secs
        *. float_of_int iterations /. float_of_int k)
  in
  record "engine.craft" !t !craft_s;
  record "engine.step" !t !step_s;
  record "engine.detect" (!t + 1) !detect_s;
  (match metrics with
  | None -> ()
  | Some m ->
    Stdx.Metrics.incr m "engine.runs";
    if span_on then
      Stdx.Metrics.incr ~by:(sampled (!t + 1)) m "engine.sampled_rounds";
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
    final_states = decoded_states ();
    recent_outputs = Online.recent detector;
    messages_per_round;
    bits_per_round = messages_per_round * spec.Algo.Spec.state_bits;
  }
